"""Runtime risk monitoring (paper §IV: "a runtime model environment").

The paper's conclusion positions PSP as a move "from static risk
assessment models ... to a runtime model environment.  This approach
allows for monitoring internal risks".  :class:`PSPMonitor` formalises
that loop: it re-runs the PSP pipeline over a growing time window at a
configurable cadence, diffs the resulting insider weight tables, and
emits :class:`TrendAlert` records — optionally recording a TARA
reprocessing on a :class:`~repro.tara.lifecycle.LifecycleTracker`.

The monitor is deliberately pull-based (the caller decides when a tick
happens) so it composes with any scheduler, test harness or batch job.

Monitoring windows grow: tick N covers ``start..N``, tick N+1 covers
``start..N+1`` — almost entirely overlapping.  Build the framework with
``cache=True`` (see :class:`~repro.core.framework.PSPFramework`) and
each tick fetches and scores only the days it newly covers, yearly or
monthly (:meth:`PSPMonitor.tick_date`); everything earlier is served
from the query cache's year cells and their memoised SAI evidence.
:attr:`PSPMonitor.cache_stats` exposes the resulting hit rates for
operators.

With ``stream=True`` the grow-window re-run is replaced entirely: ticks
are served by a :class:`~repro.stream.runtime.StreamRuntime` that
ingests the corpus as an event feed and recomputes only what each
micro-batch dirtied (index append, running SAI aggregates, conditional
retune/rescore).  The pull-based ``tick()`` API and the
:class:`TrendAlert` shape are unchanged — only the cost model moves
from O(corpus) per tick to O(new posts).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.framework import PSPFramework, PSPRunResult
from repro.core.timewindow import TimeWindow
from repro.obs.registry import ensure_registry
from repro.iso21434.enums import AttackVector, FeasibilityRating
from repro.iso21434.feasibility.attack_vector import WeightTable
from repro.tara.lifecycle import LifecycleTracker, ReprocessingEvent
from repro.tara.model import compile_threat_model
from repro.tara.scoring import BatchTaraScorer, TaraReportData
from repro.vehicle.network import VehicleNetwork


@dataclass(frozen=True)
class VectorChange:
    """One vector whose insider rating moved between two ticks."""

    vector: AttackVector
    before: FeasibilityRating
    after: FeasibilityRating

    @property
    def raised(self) -> bool:
        """True when the rating went up (more attack pressure)."""
        return self.after > self.before


@dataclass(frozen=True)
class TrendAlert:
    """Emitted when a tick changes the insider weight table."""

    upto_year: int
    changes: Tuple[VectorChange, ...]
    result: PSPRunResult
    #: The TARA re-scored with the shifted insider table over the
    #: monitor's compiled threat model (None without a monitored network).
    tara: Optional[TaraReportData] = None

    def describe(self) -> str:
        """One-line alert summary."""
        moved = ", ".join(
            f"{c.vector.value}: {c.before.label()} -> {c.after.label()}"
            for c in self.changes
        )
        return f"[{self.upto_year}] insider ratings moved: {moved}"


class PSPMonitor:
    """Re-runs PSP per tick and alerts on insider-table changes.

    Args:
        framework: the PSP framework to drive.
        start_year: first year covered by the analysis window.
        tracker: optional lifecycle tracker; when given, every alert also
            records a PSP_TREND_SHIFT reprocessing event on it.
        learn: whether each tick runs keyword auto-learning.
        network: optional vehicle architecture; when given, the monitor
            compiles its threat model once and every alert carries the
            TARA re-scored with the shifted insider table
            (:attr:`TrendAlert.tara`) — continuous TARA at the cost of a
            memoised scoring sweep per shift.
        stream: serve ticks from a streaming runtime instead of full
            pipeline re-runs.  Incompatible with ``learn=True``
            (streaming keyword learning is an open roadmap item).
        feed: event feed for stream mode; defaults to replaying the
            framework client's backing corpus in timestamp order.
        post_filter: authenticity filter for the stream-mode feed path.
            Defaults to the filter of a
            :class:`~repro.core.poisoning.FilteringClient` found in the
            framework's client stack, so a filtering batch monitor
            stays filtering when switched to ``stream=True``.
        shards: with ``stream=True`` and ``shards > 1``, the corpus
            feed is hash-partitioned into this many shard feeds served
            by a :class:`~repro.stream.sharding.ShardedStreamRuntime` —
            same ``tick()`` API and alerts, but per-shard ingest with
            one merged evaluation per tick.  Requires the default
            corpus-backed feed (pass pre-sharded feeds to the sharded
            runtime directly for custom topologies).
        workers: executor parallelism for the sharded runtime's shard
            jobs (resolved by
            :func:`~repro.core.executor.resolve_executor`).
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`.
            In stream mode it is threaded into the backing runtime
            (which owns the tick/alert counters and span tracing); in
            batch mode the monitor itself counts ``psp_ticks_total`` and
            ``psp_alerts_total`` so both modes expose the same health
            counters.
    """

    def __init__(
        self,
        framework: PSPFramework,
        *,
        start_year: int,
        tracker: Optional[LifecycleTracker] = None,
        learn: bool = False,
        network: Optional[VehicleNetwork] = None,
        stream: bool = False,
        feed=None,
        post_filter=None,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        metrics=None,
    ) -> None:
        self._framework = framework
        self._start_year = start_year
        self._tracker = tracker
        self._learn = learn
        self._last_table: Optional[WeightTable] = None
        self._alerts: List[TrendAlert] = []
        self._last_year: Optional[int] = None
        self._last_date: Optional[dt.date] = None
        self._scorer: Optional[BatchTaraScorer] = None
        self._runtime = None
        self._metrics = ensure_registry(metrics)
        if shards is not None and not stream:
            raise ValueError("shards= needs stream=True")
        if stream:
            if learn:
                raise ValueError(
                    "stream mode does not support keyword learning yet"
                )
            self._runtime = _build_stream_runtime(
                framework,
                start_year=start_year,
                tracker=tracker,
                network=network,
                feed=feed,
                post_filter=post_filter,
                shards=shards,
                workers=workers,
                metrics=metrics,
            )
            self._scorer = self._runtime.tara_scorer
            # The runtime owns psp_ticks_total / psp_alerts_total — the
            # monitor counting them again would double every tick.
            self._ticks_total = None
            self._alerts_total = None
        else:
            if network is not None:
                self._scorer = BatchTaraScorer(compile_threat_model(network))
            self._ticks_total = self._metrics.counter(
                "psp_ticks_total", "Stream ticks processed"
            )
            self._alerts_total = self._metrics.counter(
                "psp_alerts_total", "Trend alerts emitted"
            )

    @property
    def alerts(self) -> Tuple[TrendAlert, ...]:
        """All alerts emitted so far, oldest first."""
        return tuple(self._alerts)

    @property
    def current_table(self) -> Optional[WeightTable]:
        """The insider table from the latest tick (None before any tick)."""
        return self._last_table

    @property
    def cache_stats(self):
        """The driven framework's cache statistics (None when uncached)."""
        return self._framework.cache_stats

    @property
    def tara_scorer(self) -> Optional[BatchTaraScorer]:
        """The compiled-model scorer (None without a monitored network)."""
        return self._scorer

    @property
    def stream_runtime(self):
        """The backing streaming runtime (None in batch mode)."""
        return self._runtime

    @property
    def metrics(self):
        """The telemetry registry (a no-op NullRegistry by default)."""
        return self._metrics

    def baseline_tara(self) -> Optional[TaraReportData]:
        """The static-table TARA over the monitored architecture.

        Returns None when the monitor was built without a network.
        Repeated calls re-score from the warm feasibility memo.
        """
        if self._scorer is None:
            return None
        return self._scorer.score()

    def tick(self, upto_year: int) -> Optional[TrendAlert]:
        """Run one monitoring tick covering ``start_year..upto_year``.

        Returns the alert when the insider table changed versus the
        previous tick, else None.  The first tick establishes the
        baseline and never alerts.

        Raises:
            ValueError: when ticks go backwards in time.
        """
        if upto_year < self._start_year:
            raise ValueError(
                f"tick year {upto_year} precedes start year {self._start_year}"
            )
        if self._last_year is not None and upto_year <= self._last_year:
            raise ValueError(
                f"ticks must advance: {upto_year} after {self._last_year}"
            )
        return self._tick_until(
            dt.date(upto_year, 12, 31), upto_year=upto_year
        )

    def tick_date(self, until: dt.date) -> Optional[TrendAlert]:
        """Run one date-granular tick covering ``start_year-01-01..until``.

        The sub-year counterpart of :meth:`tick` — the replay harness
        (:mod:`repro.stream.replay`) drives monthly boundaries through
        it.  Same contract: the first tick establishes the baseline and
        never alerts, ticks must strictly advance (a ``tick_date`` may
        interleave with yearly :meth:`tick` calls as long as time moves
        forward).

        Raises:
            ValueError: when ticks go backwards in time.
        """
        if until.year < self._start_year:
            raise ValueError(
                f"tick date {until} precedes start year {self._start_year}"
            )
        return self._tick_until(until, upto_year=until.year)

    def _tick_until(
        self, until: dt.date, *, upto_year: int
    ) -> Optional[TrendAlert]:
        if self._last_date is not None and until <= self._last_date:
            raise ValueError(
                f"ticks must advance: {until} after {self._last_date}"
            )
        if self._runtime is not None:
            tick = self._runtime.advance_to(until, upto_year=upto_year)
            if tick.alert is not None:
                # The runtime already recorded the lifecycle event.
                self._alerts.append(tick.alert)
            self._last_table = self._runtime.current_table
            self._advance_clock(until)
            return tick.alert
        if until == dt.date(upto_year, 12, 31):
            window = TimeWindow.years(self._start_year, upto_year)
        else:
            window = TimeWindow(
                since=dt.date(self._start_year, 1, 1),
                until=until,
                label=f"{self._start_year}..{until.isoformat()}",
            )
        result = self._framework.run(window, learn=self._learn)
        if self._ticks_total is not None:
            self._ticks_total.inc()
        table = result.insider_table
        alert: Optional[TrendAlert] = None
        if self._last_table is not None:
            changed = table.differs_from(self._last_table)
            if changed:
                changes = tuple(
                    VectorChange(
                        vector=vector,
                        before=self._last_table.rating(vector),
                        after=table.rating(vector),
                    )
                    for vector in changed
                )
                tara = (
                    self._scorer.score(insider_table=table)
                    if self._scorer is not None
                    else None
                )
                alert = TrendAlert(
                    upto_year=upto_year,
                    changes=changes,
                    result=result,
                    tara=tara,
                )
                self._alerts.append(alert)
                if self._alerts_total is not None:
                    self._alerts_total.inc()
                if self._tracker is not None:
                    self._tracker.report_trend_shift(alert.describe())
        self._last_table = table
        self._advance_clock(until)
        return alert

    def _advance_clock(self, until: dt.date) -> None:
        """Record monitor time: full years covered plus the exact date."""
        self._last_date = until
        # The yearly guard tracks *fully covered* years, so a mid-year
        # tick_date(2020-06-30) still allows a later tick(2020).
        if until == dt.date(until.year, 12, 31):
            self._last_year = until.year
        else:
            self._last_year = until.year - 1

    def run_years(self, first: int, last: int) -> List[TrendAlert]:
        """Tick once per year from ``first`` to ``last`` inclusive."""
        if first > last:
            raise ValueError(f"first year {first} > last year {last}")
        alerts = []
        for year in range(first, last + 1):
            alert = self.tick(year)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def reprocessing_events(self) -> Tuple[ReprocessingEvent, ...]:
        """The lifecycle events this monitor caused (empty without tracker)."""
        if self._tracker is None:
            return ()
        return tuple(
            event
            for event in self._tracker.events
            if event.trigger.value == "psp_trend_shift"
        )

    def close(self) -> None:
        """Release the backing runtime's resources (idempotent).

        A sharded stream runtime may hold an executor worker pool; batch
        and single-stream monitors close as a no-op.
        """
        if self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "PSPMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _build_stream_runtime(
    framework: PSPFramework,
    *,
    start_year: int,
    tracker: Optional[LifecycleTracker],
    network: Optional[VehicleNetwork],
    feed,
    post_filter=None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    metrics=None,
):
    """A stream runtime mirroring one framework's batch configuration.

    The framework's client stack is unwrapped along the decorator
    ``inner`` chain: a :class:`~repro.core.poisoning.FilteringClient`
    found on the way donates its authenticity filter to the feed path
    (unless an explicit ``post_filter`` overrides it), and the
    innermost corpus-backed client donates the default feed.  With
    ``shards``, the corpus is hash-partitioned into shard feeds and a
    :class:`~repro.stream.sharding.ShardedStreamRuntime` serves the
    ticks instead.

    Imports are local: the stream package depends on this module (for
    the alert shape), so the monitor reaches back lazily.
    """
    from repro.core.poisoning import FilteringClient
    from repro.stream.feed import SyntheticFeed
    from repro.stream.runtime import StreamRuntime
    from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

    client = framework.client
    while True:
        if post_filter is None and isinstance(client, FilteringClient):
            post_filter = client.post_filter
        inner = getattr(client, "inner", None)
        if inner is None:
            break
        client = inner
    corpus = getattr(client, "corpus", None)
    if shards is not None and shards > 1:
        if feed is not None:
            raise ValueError(
                "shards= partitions the corpus feed itself; for custom "
                "feeds build a ShardedStreamRuntime with pre-sharded "
                "feeds instead"
            )
        if corpus is None:
            raise ValueError(
                "shards= needs a corpus-backed framework client to "
                "partition"
            )
        return ShardedStreamRuntime(
            shard_feeds(corpus.posts, shards),
            framework.database,
            target=framework.target,
            config=framework.config,
            since_year=start_year,
            network=network,
            tracker=tracker,
            post_filter=post_filter,
            workers=workers,
            metrics=metrics,
        )
    if feed is None:
        if corpus is None:
            raise ValueError(
                "stream=True needs an explicit feed= when the framework's "
                "client is not corpus-backed"
            )
        feed = SyntheticFeed.from_corpus(corpus)
    return StreamRuntime(
        feed,
        framework.database,
        target=framework.target,
        config=framework.config,
        since_year=start_year,
        network=network,
        tracker=tracker,
        post_filter=post_filter,
        metrics=metrics,
    )
