"""The streaming PSP runtime: feeds in, alerts out.

:class:`ShardedStreamRuntime` is the one tick implementation, the
event-driven counterpart of :class:`~repro.core.monitor.PSPMonitor`'s
grow-window re-run loop.  It consumes N feeds, one per shard, and
:class:`StreamRuntime` is the same runtime over one feed.  One tick
consumes a micro-batch per shard and performs, in order:

1. **shard map** — each shard batch passes the authenticity filter
   (:mod:`repro.core.poisoning`, so a flood injected mid-stream is
   rejected *before* it can dirty any keyword), is built into one
   column chunk (:meth:`~repro.social.columnar.ColumnarCorpus.
   from_posts`) and is folded once by the one delta kernel
   (:func:`~repro.stream.deltas.compute_signal_delta_columnar`) into an
   additive :class:`~repro.stream.deltas.SignalDelta` plus the chunk's
   :class:`~repro.stream.deltas.ChunkRuns`, through a pluggable
   :mod:`~repro.core.executor`;
2. **shard merge** — the chunk and its runs join the shard's
   :class:`~repro.stream.tiers.TieredCorpusIndex` hot tail (seals
   concatenate chunks and fold cold sidecars from the runs, so no post
   is analyzed, columnized or swept again) and the delta is applied,
   once, to the runtime's one :class:`~repro.stream.deltas.DeltaTracker`
   (shard deltas in shard order);
3. **conditional weight retune** — insider weights are re-derived only
   when a dirty keyword is insider-classified (before or after
   reclassification) or the in-window volume went stale; pure-outsider
   chatter leaves the table in force.  A retune works on plain numbers:
   the tracker's flat window sums are scored into SAI
   probabilities, summed into insider vector shares in rank order and
   mapped to ratings, and the insider table is rebuilt only when its
   ratings or window label change.  The SAI list, split, tuning outcome
   and :class:`~repro.core.framework.PSPRunResult` are built from the
   retune's numbers only when an alert needs them or ``current_result``
   is read;
4. **conditional TARA rescore** — the compiled
   :class:`~repro.tara.scoring.BatchTaraScorer` re-scores only when the
   insider table's rating fingerprint actually changed, and the tick
   emits a :class:`~repro.core.monitor.TrendAlert` (same shape as the
   batch monitor's, carrying the tick's full result) plus an optional
   lifecycle trend-shift event.

Steps 3-4 live in :class:`TickEvaluator` and run *once* per tick over
that tracker, so retune/rescore cost is independent of shard count: the
runtime is the one controller holding state, shards only hand it
additive deltas.

The first evaluation always tunes (establishing the baseline table and
never alerting — the monitor's first-tick contract).  All mutable state
is checkpointable (``state_dict``/``load_state``; for
:class:`StreamRuntime` also the files of
:mod:`repro.stream.checkpoint`): a stopped runtime resumes from its
cursors and emits the same remaining alerts as an uninterrupted run.
"""

from __future__ import annotations

import datetime as dt
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.classification import ClassifiedEntry, InsiderOutsiderSplit
from repro.core.config import PSPConfig, TargetApplication
from repro.core.errors import PSPError
from repro.core.executor import resolve_executor
from repro.core.framework import PSPRunResult
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.monitor import TrendAlert, VectorChange
from repro.core.poisoning import FilterReport, PostAuthenticityFilter
from repro.core.sai import (
    SAIComputer,
    WindowSums,
    gather_signals,
    ranked_vector_shares,
    sai_list,
)
from repro.core.timewindow import TimeWindow
from repro.core.weights import TuningOutcome, WeightTuner, tuned_note
from repro.iso21434.enums import AttackVector
from repro.iso21434.feasibility.attack_vector import WeightTable, standard_table
from repro.nlp.sentiment import SentimentAnalyzer
from repro.obs import views as obs_views
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, ensure_registry
from repro.obs.trace import trace_for
from repro.social.columnar import ColumnarCorpus
from repro.social.post import Post
from repro.stream.deltas import (
    ChunkRuns,
    DeltaTracker,
    SignalDelta,
    compute_signal_delta_columnar,
    signals_from_sums,
)
from repro.stream.feed import FeedSource, PostEvent
from repro.stream.store import DEFAULT_MAX_RESIDENT_COLD, SegmentStore
from repro.stream.tiers import DEFAULT_COMPACT_THRESHOLD, TieredCorpusIndex
from repro.tara.lifecycle import LifecycleTracker
from repro.tara.model import compile_threat_model
from repro.tara.scoring import (
    BatchTaraScorer,
    TaraReportData,
    ratings_fingerprint,
    table_fingerprint,
)
from repro.vehicle.network import VehicleNetwork

#: Default per-shard micro-batch size for :meth:`ShardedStreamRuntime.tick`.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class StreamTick:
    """Outcome of one runtime tick (one micro-batch per shard).

    ``shard_accepted`` records how many accepted posts each shard
    contributed (one entry for a single feed).
    """

    seq: int
    events: int
    accepted: int
    rejected: int
    dirty: Tuple[str, ...]
    retuned: bool
    rescored: bool
    alert: Optional[TrendAlert]
    upto_year: Optional[int]
    shard_accepted: Tuple[int, ...] = ()

    def describe(self) -> str:
        """One-line tick summary."""
        if self.alert is not None:
            verdict = "ALERT"
        elif self.retuned:
            verdict = "no rating change"
        else:
            verdict = "stable"
        return (
            f"tick {self.seq}: +{self.accepted} posts"
            f" ({self.rejected} rejected), {len(self.dirty)} dirty,"
            f" {'retuned' if self.retuned else 'no retune'}, {verdict}"
        )


class _Retune(NamedTuple):
    """One retune's numbers, kept so its full result can be built later.

    ``sums`` is the tracker's :meth:`~repro.stream.deltas.DeltaTracker.
    window_sums` at that tick, a fresh dict nothing else holds.
    ``scores``, ``probabilities``, ``flags`` (insider verdicts) and
    ``votes`` follow ``entries``, the database as it stood; an annotated
    keyword's votes are ``(0, 0)``.
    """

    window: TimeWindow
    entries: Tuple[AttackKeyword, ...]
    sums: Mapping[str, WindowSums]
    scores: List[float]
    probabilities: List[float]
    flags: Tuple[bool, ...]
    votes: Tuple[Tuple[int, int], ...]
    shares: Dict[AttackVector, float]
    table: WeightTable


class TickEvaluator:
    """Conditional retune + conditional rescore over running aggregates.

    The table-producing half of a streaming tick, run *once* per tick
    over the runtime's tracker: classification from votes,
    SAI from signals, weight tuning, fingerprint diffing, TARA
    rescoring and alert emission all live here, parameterised only by
    the :class:`~repro.stream.deltas.DeltaTracker` handed to
    :meth:`evaluate`.

    A retune works on plain numbers: the tracker's flat window sums go
    through the SAI computer's flat scorer
    (:meth:`~repro.core.sai.SAIComputer.score_sums`), the insider
    probabilities through :func:`~repro.core.sai.ranked_vector_shares`,
    and the shares through the tuner's rating rule, the same kernels
    the object path calls.  The insider table is rebuilt only
    when its ratings or window label change.  The SAI list, split,
    tuning outcome and :class:`~repro.core.framework.PSPRunResult` are
    built from the retune's kept numbers only when an alert needs them
    or :attr:`last_result` is read, and they equal what the object path
    would have built at that tick.
    """

    def __init__(
        self,
        database: KeywordDatabase,
        *,
        target: TargetApplication,
        config: PSPConfig,
        since_year: Optional[int] = None,
        network: Optional[VehicleNetwork] = None,
        tracker: Optional[LifecycleTracker] = None,
        metrics=None,
        trace=None,
    ) -> None:
        self._database = database
        self._target = target
        self._config = config
        self.since_year = since_year
        self._tracker = tracker
        self._metrics = ensure_registry(metrics)
        self._trace = trace if trace is not None else trace_for(self._metrics)
        self._retunes_total = self._metrics.counter(
            "psp_retunes_total", "Weight-table retunes"
        )
        self._forced_retunes_total = self._metrics.counter(
            "psp_forced_retunes_total", "Staleness-forced retunes"
        )
        self._rescores_total = self._metrics.counter(
            "psp_tara_rescores_total", "Compiled-TARA rescores"
        )
        self._alerts_total = self._metrics.counter(
            "psp_alerts_total", "Trend alerts emitted"
        )
        self._staleness_share = config.stream_staleness_share
        # The signals scoring path never touches the client slot.
        self._computer = SAIComputer(None, config=config)  # type: ignore[arg-type]
        self._tuner = WeightTuner(config.tuning)
        self._scorer: Optional[BatchTaraScorer] = None
        if network is not None:
            self._scorer = BatchTaraScorer(compile_threat_model(network))

        self.insider_flags: Dict[str, bool] = {}
        self.last_table: Optional[WeightTable] = None
        self.last_fingerprint: Optional[Tuple] = None
        self.alerts: List[TrendAlert] = []
        self.retunes = 0
        self.rescores = 0
        #: In-window corpus volume measured at the last retune — the
        #: reference point of the staleness-window policy.
        self.retune_window_posts: Optional[int] = None
        self.forced_retunes = 0
        self._last_retune: Optional[_Retune] = None
        self._last_result: Optional[PSPRunResult] = None
        # (since_year, upto_year) -> (window, tuned-table note).
        self._windows: Dict[Tuple, Tuple[TimeWindow, str]] = {}

    @property
    def scorer(self) -> Optional[BatchTaraScorer]:
        """The compiled-model TARA scorer (None without a network)."""
        return self._scorer

    @property
    def last_result(self) -> Optional[PSPRunResult]:
        """The latest retune's full result (None before any retune).

        Built from that retune's kept numbers on the first read, so it
        describes the tick that retuned, whatever ticks ran since.
        """
        if self._last_result is None and self._last_retune is not None:
            self._last_result = self._result_of(self._last_retune)
        return self._last_result

    def baseline_tara(self) -> Optional[TaraReportData]:
        """The static-table TARA (None without a network)."""
        if self._scorer is None:
            return None
        return self._scorer.score()

    def _window(self, upto_year: Optional[int]) -> Tuple[TimeWindow, str]:
        """The analysis window up to ``upto_year`` and its table note."""
        key = (self.since_year, upto_year)
        cached = self._windows.get(key)
        if cached is not None:
            return cached
        if self.since_year is not None and upto_year is not None:
            window = TimeWindow.years(self.since_year, upto_year)
        else:
            since = (
                dt.date(self.since_year, 1, 1)
                if self.since_year is not None
                else None
            )
            until = (
                dt.date(upto_year, 12, 31) if upto_year is not None else None
            )
            window = TimeWindow(since=since, until=until, label="streamed")
        cached = self._windows[key] = (window, tuned_note(window.describe()))
        return cached

    def _classify(self, deltas: DeltaTracker, keyword: str) -> bool:
        """Mirror of the batch classifier over the running aggregates."""
        annotation = self._database.get(keyword).owner_approved
        if annotation is not None:
            return annotation
        count = deltas.window_count(keyword, since_year=self.since_year)
        if count <= 0:
            return False
        insider_votes, outsider_votes = deltas.votes(keyword)
        return insider_votes > outsider_votes

    def _flag(self, deltas: DeltaTracker, keyword: str) -> bool:
        """A keyword's cached insider verdict, classified on first use."""
        flag = self.insider_flags.get(keyword)
        if flag is None:
            flag = self.insider_flags[keyword] = self._classify(
                deltas, keyword
            )
        return flag

    def _result_of(self, retune: _Retune) -> PSPRunResult:
        """One retune's full result, built from its numbers."""
        sai = sai_list(
            gather_signals(retune.entries, signals_from_sums(retune.sums)),
            retune.scores,
            retune.probabilities,
        )
        verdicts = {
            entry.keyword: (flag, entry.owner_approved is not None, votes)
            for entry, flag, votes in zip(
                retune.entries, retune.flags, retune.votes
            )
        }
        insider: List[ClassifiedEntry] = []
        outsider: List[ClassifiedEntry] = []
        for entry in sai:
            flag, annotated, (insider_votes, outsider_votes) = verdicts[
                entry.keyword
            ]
            (insider if flag else outsider).append(
                ClassifiedEntry(
                    entry=entry,
                    insider=flag,
                    from_annotation=annotated,
                    insider_votes=insider_votes,
                    outsider_votes=outsider_votes,
                )
            )
        return PSPRunResult(
            target=self._target,
            window=retune.window,
            sai=sai,
            split=InsiderOutsiderSplit(
                insider=tuple(insider), outsider=tuple(outsider)
            ),
            tuning=TuningOutcome(
                insider_table=retune.table,
                outsider_table=standard_table(),
                vector_shares=retune.shares,
                window_label=retune.window.describe(),
            ),
            learned_keywords=(),
        )

    def _stale_retune_due(
        self, deltas: DeltaTracker, upto_year: Optional[int]
    ) -> bool:
        """Has the in-window volume drifted past the staleness threshold?

        Compares the current in-window post total against the total at
        the last retune; a relative move beyond
        ``config.stream_staleness_share`` forces a retune so the cached
        SAI scores track the corpus again.  Cost model: the check itself
        is O(keywords × years) on the bucket map; a forced retune costs
        one flat retune, the same as any insider tick — and is
        amortised because the reference volume resets, so sustained
        outsider chatter triggers at most one forced retune per
        threshold-crossing, not one per tick.
        """
        if self._staleness_share is None:
            return False
        reference = self.retune_window_posts
        if reference is None:
            return False
        current = deltas.window_total(
            since_year=self.since_year, until_year=upto_year
        )
        if reference == 0:
            return current > 0
        return abs(current - reference) / reference > self._staleness_share

    def evaluate(
        self,
        deltas: DeltaTracker,
        dirty: Sequence[str],
        upto_year: Optional[int],
    ) -> Tuple[bool, bool, Optional[TrendAlert]]:
        """Conditional retune + conditional rescore for one tick.

        ``deltas`` is the aggregate view covering the whole logical
        stream: the runtime's one tracker, holding every shard's deltas.
        Returns ``(retuned, rescored, alert)``.
        """
        first = self.last_table is None
        before = any(self.insider_flags.get(k, False) for k in dirty)
        for keyword in dirty:
            self.insider_flags[keyword] = self._classify(deltas, keyword)
        after = any(self.insider_flags[k] for k in dirty)
        if not first and not (before or after):
            # Outsider-only (or unmatched) chatter cannot move the
            # insider weight table, but it still shifts the corpus-wide
            # totals every SAI probability is a share of — the cached
            # scores go stale.  Retune anyway once the in-window volume
            # has drifted past the staleness threshold.
            if not self._stale_retune_due(deltas, upto_year):
                return False, False, None
            self.forced_retunes += 1
            self._forced_retunes_total.inc()

        with self._trace.span("sai"):
            window, note = self._window(upto_year)
            sums = deltas.window_sums(
                since_year=self.since_year, until_year=upto_year
            )
            entries = tuple(self._database)
            scores, probabilities = self._computer.score_sums(entries, sums)
        with self._trace.span("retune"):
            flags = tuple(self._flag(deltas, entry.keyword) for entry in entries)
            shares = ranked_vector_shares(entries, scores, probabilities, flags)
            fingerprint = ratings_fingerprint(
                self._tuner.ratings_from_shares(shares)
            )
            table = self.last_table
            if (
                table is None
                or fingerprint != self.last_fingerprint
                or table.note != note
            ):
                table = self._tuner.tune_from_shares(shares, note=note)
            self._last_retune = _Retune(
                window=window,
                entries=entries,
                sums=sums,
                scores=scores,
                probabilities=probabilities,
                flags=flags,
                shares=shares,
                table=table,
                votes=tuple(
                    (0, 0)
                    if entry.owner_approved is not None
                    else deltas.votes(entry.keyword)
                    for entry in entries
                ),
            )
            self._last_result = None
            self.retunes += 1
            self._retunes_total.inc()
            self.retune_window_posts = sum(row[4] for row in sums.values())

        rescored = False
        alert: Optional[TrendAlert] = None
        if (
            self.last_table is not None
            and fingerprint != self.last_fingerprint
        ):
            changed = table.differs_from(self.last_table)
            changes = tuple(
                VectorChange(
                    vector=vector,
                    before=self.last_table.rating(vector),
                    after=table.rating(vector),
                )
                for vector in changed
            )
            tara: Optional[TaraReportData] = None
            if self._scorer is not None:
                with self._trace.span("rescore"):
                    tara = self._scorer.score(insider_table=table)
                rescored = True
                self.rescores += 1
                self._rescores_total.inc()
            with self._trace.span("alert_emit"):
                alert = TrendAlert(
                    upto_year=upto_year if upto_year is not None else 0,
                    changes=changes,
                    result=self.last_result,
                    tara=tara,
                )
                self.alerts.append(alert)
                self._alerts_total.inc()
                if self._tracker is not None:
                    self._tracker.report_trend_shift(alert.describe())

        self.last_table = table
        self.last_fingerprint = fingerprint
        return True, rescored, alert

    # -- checkpoint support --------------------------------------------------

    def state_slice(self) -> Dict[str, object]:
        """The evaluator's share of a runtime ``state_dict``."""
        return {
            "insider_flags": dict(sorted(self.insider_flags.items())),
            "last_table": _table_state(self.last_table),
            "alert_count": len(self.alerts),
            "retunes": self.retunes,
            "tara_rescores": self.rescores,
            "retune_window_posts": self.retune_window_posts,
            "forced_retunes": self.forced_retunes,
        }

    def load_slice(
        self, state: Mapping[str, object], *, database_matches: bool
    ) -> None:
        """Restore the :meth:`state_slice` fields."""
        if database_matches:
            self.insider_flags = {
                str(k): bool(v)
                for k, v in state["insider_flags"].items()  # type: ignore[union-attr]
            }
        else:
            # The database changed since the checkpoint (e.g. an analyst
            # re-annotated a keyword).  The cached verdicts may
            # contradict the new annotations, so drop them — the next
            # evaluation reclassifies lazily from the restored votes and
            # aggregates, which is O(keywords).
            self.insider_flags = {}
        self.last_table = _table_from_state(state.get("last_table"))
        self.last_fingerprint = (
            table_fingerprint(self.last_table)
            if self.last_table is not None
            else None
        )
        self.retunes = int(state.get("retunes", 0))  # type: ignore[arg-type]
        self.rescores = int(state.get("tara_rescores", 0))  # type: ignore[arg-type]
        raw_reference = state.get("retune_window_posts")
        self.retune_window_posts = (
            int(raw_reference) if raw_reference is not None else None  # type: ignore[arg-type]
        )
        self.forced_retunes = int(state.get("forced_retunes", 0))  # type: ignore[arg-type]


# -- the per-shard ingest job -------------------------------------------------


@dataclass(frozen=True)
class _ShardJob:
    """One shard's micro-batch, as a picklable work item.

    ``keywords`` and ``region`` are the runtime tracker's, which every
    shard index's cold sidecars share.  ``analyzer`` is the runtime's
    one sentiment analyzer, the one its trackers and cold sidecars score
    with (a process worker gets a pickled copy, whose fingerprint is the
    same).
    """

    keywords: Tuple[str, ...]
    region: Optional[str]
    posts: Tuple[Post, ...]
    post_filter: Optional[PostAuthenticityFilter]
    analyzer: SentimentAnalyzer


_ShardOutcome = Tuple[
    SignalDelta,
    Optional[FilterReport],
    Optional[ColumnarCorpus],
    Optional[ChunkRuns],
]


def _run_shard_job(job: _ShardJob) -> _ShardOutcome:
    """Filter, columnize and fold one shard batch (inside any executor).

    Module-level and pure so a :class:`~repro.core.executor.
    ProcessExecutor` can ship it to a worker: in comes plain data, out
    come an additive :class:`SignalDelta`, the authenticity-filter audit
    report, and the accepted posts' column chunk with its
    :class:`ChunkRuns` (None for an empty batch).  This is the one place
    a post is analyzed, columnized and folded: the index keeps the chunk
    and its runs, so its seals neither rebuild nor re-sweep it.  The
    fold scores with the job's analyzer, so a tick builds none; a
    process worker ships the chunk back as plain columns.
    """
    report: Optional[FilterReport] = None
    posts: Sequence[Post] = job.posts
    if job.post_filter is not None and posts:
        report = job.post_filter.filter(list(posts))
        posts = report.accepted
    if not posts:
        return SignalDelta.empty(), report, None, None
    columns = ColumnarCorpus.from_posts(posts)
    delta, runs = compute_signal_delta_columnar(
        job.keywords,
        columns,
        region=job.region,
        analyzer=job.analyzer,
        runs=True,
    )
    return delta, report, columns, runs


@dataclass
class _ShardState:
    """One shard's private slice of the runtime.

    ``posts`` counts the accepted posts the shard has folded into the
    runtime's tracker.  ``metrics`` is the shard's child registry (merged
    into the parent by pure summation at collect time); ``ingested`` and
    ``merge_seconds`` are its shard-labelled instruments.
    """

    shard_id: int
    feed: FeedSource
    index: TieredCorpusIndex
    cursor: int = -1
    posts: int = 0
    metrics: object = None
    ingested: object = None
    merge_seconds: object = None


# -- the runtime --------------------------------------------------------------


class ShardedStreamRuntime:
    """Event-driven incremental PSP: N feeds, one evaluation per tick.

    The runtime builds one
    :class:`~repro.nlp.sentiment.SentimentAnalyzer` and scores
    everything with it: every shard job, the tracker and every cold
    sidecar.  A tick builds no analyzer, and every sentiment-memo probe
    uses that analyzer's fingerprint.

    Args:
        feeds: the shard event sources (any
            :class:`~repro.stream.feed.FeedSource`), e.g. from
            :func:`~repro.stream.sharding.shard_feeds`.
        database: shared attack-keyword database.  *Additions* (keyword
            learning) are adopted on the next tick: the tracker's
            universe grows, the new keywords' aggregates backfill from
            the shard indexes, and they join the dirty set.  Removals or
            replacements still raise — that is a different monitor, not
            a retune.
        target: what the assessment is about; its region scopes every
            shard's SAI aggregates exactly as the batch pipeline's
            region filter.
        config: pipeline tunables (SAI weights, tuning thresholds).
        since_year: lower bound of the analysis window (the monitor's
            ``start_year``); None = everything ingested.
        network: when given, the threat model is compiled once and every
            table-changing tick re-scores it (continuous TARA).
        tracker: lifecycle tracker; alerts record PSP_TREND_SHIFT events.
        post_filter: authenticity filter, applied *per shard batch*
            inside the shard job (its share-based heuristics judge each
            shard's traffic on its own); posts it rejects never reach
            the index or the aggregates.
        batch_size: default per-shard micro-batch size for :meth:`tick`
            and :meth:`run`.
        compact_threshold / compact_ratio: per-shard hot-tail size
            policy (see :class:`~repro.stream.tiers.TieredCorpusIndex`).
        warm_span_days / cold_age_days: per-shard retention knobs of
            the :class:`~repro.stream.tiers.TieredCorpusIndex` (hot
            tail, date-bounded warm segments, cold segments with
            aggregate sidecars).  Unset, every shard's index retains
            its whole history; with one set, the other takes its
            default.
        spill_dir / max_resident_cold: when ``spill_dir`` is set, ONE
            :class:`~repro.stream.store.SegmentStore` opens there and
            every shard spills its cold seals into it (keys are
            content-addressed, so shards sharing a directory never
            collide); shard appends run serially in the merge leg, so
            the shared store sees no concurrent writes.
            ``max_resident_cold`` bounds the hydrated cold segments kept
            resident (None = the store default).  Both require a
            retention knob: without one there is no cold tier to spill.
        executor: explicit :mod:`~repro.core.executor` instance; wins
            over ``workers``.
        workers: requested parallelism for the shard jobs; resolved by
            :func:`~repro.core.executor.resolve_executor` (``auto`` —
            degrades to serial on a single-CPU host).
        metrics: a :class:`~repro.obs.registry.MetricsRegistry` every
            tick writes into (counters, per-stage latency histograms via
            :class:`~repro.obs.trace.TickTrace`); each shard gets a
            **child registry** (shard-labelled instruments, tier gauges)
            merged into this one by pure summation at export time — the
            metric-space mirror of the tick summing every shard's
            ``SignalDelta`` into one tracker.  None — the default —
            wires the :class:`~repro.obs.registry.NullRegistry` no-op
            path, whose overhead the ``obs_overhead`` microbench bounds.
    """

    def __init__(
        self,
        feeds: Sequence[FeedSource],
        database: KeywordDatabase,
        *,
        target: Optional[TargetApplication] = None,
        config: Optional[PSPConfig] = None,
        since_year: Optional[int] = None,
        network: Optional[VehicleNetwork] = None,
        tracker: Optional[LifecycleTracker] = None,
        post_filter: Optional[PostAuthenticityFilter] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        compact_ratio: Optional[float] = None,
        warm_span_days: Optional[int] = None,
        cold_age_days: Optional[int] = None,
        spill_dir=None,
        max_resident_cold: Optional[int] = None,
        executor=None,
        workers: Optional[int] = None,
        metrics=None,
    ) -> None:
        feeds = list(feeds)
        if not feeds:
            raise ValueError("ShardedStreamRuntime needs at least one feed")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._database = database
        self._db_version = database.version
        self._target = target or TargetApplication(
            "streamed", "global", "stream"
        )
        self._config = config or PSPConfig()
        self._batch_size = batch_size
        self._filter = post_filter
        region = target.region if target is not None else None
        self._metrics = ensure_registry(metrics)
        self._trace = trace_for(self._metrics)
        self._ticks_total = self._metrics.counter(
            "psp_ticks_total", "Stream ticks processed"
        )
        self._events_total = self._metrics.counter(
            "psp_events_total", "Feed events consumed"
        )
        self._ingested_total = self._metrics.counter(
            "psp_posts_ingested_total", "Posts accepted into the index"
        )
        self._rejected_total = self._metrics.counter(
            "psp_posts_rejected_total",
            "Posts rejected by the authenticity filter",
        )
        self._learned_total = self._metrics.counter(
            "psp_keywords_learned_total", "Keywords adopted mid-stream"
        )
        self._dirty_hist = self._metrics.histogram(
            "psp_dirty_keywords",
            "Dirty keywords per tick",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._cursor_gauge = self._metrics.gauge(
            "psp_feed_cursor",
            "Highest consumed feed sequence number",
            labelnames=("shard",),
        )
        self._evaluator = TickEvaluator(
            database,
            target=self._target,
            config=self._config,
            since_year=since_year,
            network=network,
            tracker=tracker,
            metrics=self._metrics,
            trace=self._trace,
        )
        if warm_span_days is None and cold_age_days is None and (
            spill_dir is not None or max_resident_cold is not None
        ):
            raise ValueError(
                "spill-to-disk requires tiered retention: set "
                "warm_span_days or cold_age_days alongside "
                "spill_dir/max_resident_cold"
            )
        # All shards spill into ONE store: keys are content-addressed,
        # so a shared directory is collision-free, and shard appends run
        # serially in the merge leg, so the store sees no concurrent
        # writes.  Store metrics land on the parent registry (spills are
        # a runtime-wide resource, not a per-shard one).
        self._store: Optional[SegmentStore] = None
        if spill_dir is not None:
            self._store = SegmentStore(
                spill_dir,
                max_resident_cold=(
                    DEFAULT_MAX_RESIDENT_COLD
                    if max_resident_cold is None
                    else max_resident_cold
                ),
                metrics=self._metrics,
            )
        #: The runtime's one aggregate tracker: each tick applies every
        #: shard's SignalDelta here once, in shard order.
        self._deltas = DeltaTracker(
            database, region=region, analyzer=SentimentAnalyzer()
        )
        self._shards: List[_ShardState] = []
        for shard_id, feed in enumerate(feeds):
            shard_metrics = self._metrics.child()
            index = TieredCorpusIndex(
                compact_threshold=compact_threshold,
                compact_ratio=compact_ratio,
                warm_span_days=warm_span_days,
                cold_age_days=cold_age_days,
                # Cold sidecars must share the tracker's scoring context
                # so their sums stay bit-identical to per-post folding.
                sidecar_keywords=database.keywords,
                sidecar_region=self._deltas.region,
                sidecar_analyzer=self._deltas.analyzer,
                store=self._store,
                max_resident_cold=max_resident_cold,
                metrics=shard_metrics,
            )
            self._shards.append(
                _ShardState(
                    shard_id=shard_id,
                    feed=feed,
                    index=index,
                    metrics=shard_metrics,
                    ingested=shard_metrics.counter(
                        "psp_shard_posts_ingested_total",
                        "Posts accepted per shard",
                        labelnames=("shard",),
                    ),
                    merge_seconds=shard_metrics.histogram(
                        "psp_shard_merge_seconds",
                        "Per-shard merge-leg latency "
                        "(index append + delta apply)",
                        labelnames=("shard",),
                    ),
                )
            )
        self._adopted_keywords: List[str] = []
        self._executor = (
            executor if executor is not None else resolve_executor(workers)
        )
        self._tick_seq = 0
        self._max_date: Optional[dt.date] = None
        self._ticks: List[StreamTick] = []
        self._filter_reports: List[FilterReport] = []
        if self._metrics.enabled:
            self._metrics.add_collector(self._refresh_gauges)

    def _refresh_gauges(self) -> None:
        """Refresh the per-shard cursor gauges at export/snapshot time."""
        for shard in self._shards:
            self._cursor_gauge.set(shard.cursor, shard=str(shard.shard_id))

    # -- introspection ------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """How many shards this runtime fans in."""
        return len(self._shards)

    @property
    def store(self) -> Optional[SegmentStore]:
        """The shared spill store (None when fully resident)."""
        return self._store

    @property
    def metrics(self):
        """The parent telemetry registry (children merge into it)."""
        return self._metrics

    @property
    def trace(self):
        """The tick-span recorder bound to :attr:`metrics`."""
        return self._trace

    @property
    def shard_metrics(self) -> Tuple[object, ...]:
        """Per-shard child registries (pure-sum merged into the parent)."""
        return tuple(shard.metrics for shard in self._shards)

    @property
    def learned_keywords(self) -> Tuple[str, ...]:
        """Keywords adopted mid-stream (keyword learning), oldest first."""
        return tuple(self._adopted_keywords)

    @property
    def executor(self):
        """The executor running the per-shard ingest jobs."""
        return self._executor

    @property
    def evaluator(self) -> TickEvaluator:
        """The shared conditional retune/rescore core."""
        return self._evaluator

    @property
    def cursors(self) -> Tuple[int, ...]:
        """Per-shard highest consumed feed sequence numbers."""
        return tuple(shard.cursor for shard in self._shards)

    @property
    def shard_indexes(self) -> Tuple[TieredCorpusIndex, ...]:
        """Per-shard appendable corpus indexes."""
        return tuple(shard.index for shard in self._shards)

    @property
    def shard_posts(self) -> Tuple[int, ...]:
        """Per-shard counts of the accepted posts each shard folded."""
        return tuple(shard.posts for shard in self._shards)

    @property
    def deltas(self) -> DeltaTracker:
        """The one aggregate tracker every shard's deltas fold into."""
        return self._deltas

    @property
    def alerts(self) -> Tuple[TrendAlert, ...]:
        """All alerts emitted so far, oldest first."""
        return tuple(self._evaluator.alerts)

    @property
    def ticks(self) -> Tuple[StreamTick, ...]:
        """All processed ticks, oldest first."""
        return tuple(self._ticks)

    @property
    def current_table(self) -> Optional[WeightTable]:
        """The insider table in force (None before the first retune)."""
        return self._evaluator.last_table

    @property
    def current_result(self) -> Optional[PSPRunResult]:
        """The PSP result of the latest retune (None before the first).

        Built on the first read after that retune, and describing it
        whatever ticks ran since.
        """
        return self._evaluator.last_result

    @property
    def tara_scorer(self) -> Optional[BatchTaraScorer]:
        """The compiled-model scorer (None without a network)."""
        return self._evaluator.scorer

    @property
    def post_filter(self) -> Optional[PostAuthenticityFilter]:
        """The per-shard-batch authenticity filter (None = unfiltered)."""
        return self._filter

    @property
    def filter_reports(self) -> Tuple[FilterReport, ...]:
        """Filter audit reports, one per filtered shard batch."""
        return tuple(self._filter_reports)

    def baseline_tara(self) -> Optional[TaraReportData]:
        """The static-table TARA (None without a network)."""
        return self._evaluator.baseline_tara()

    def runtime_health(self) -> Dict[str, object]:
        """The unified, schema-versioned health document (see
        :mod:`repro.obs.views`)."""
        return obs_views.runtime_health(self)

    # -- the tick -----------------------------------------------------------

    def _sync_database(self) -> Tuple[str, ...]:
        """Adopt database additions (keyword learning) into the stream.

        The tracker widens to the database's keyword tuple, each shard
        index backfills the added keywords' aggregates (``observed ==
        0`` — the posts were already counted) into it, and the additions
        are marked dirty, so a checkpoint taken before the next tick
        still carries them.  A
        version bump without additions is an annotation change and
        marks every keyword dirty.  Anything but pure additions raises:
        a shrunken or replaced keyword set needs a fresh runtime.
        """
        if self._database.version == self._db_version:
            return ()
        old_version = self._db_version
        try:
            added = self._deltas.adopt_keywords(self._database.keywords)
        except ValueError as exc:
            raise PSPError(
                "keyword database changed mid-stream in an unsupported "
                f"way (version {old_version} -> "
                f"{self._database.version}): {exc} — only additions "
                "(keyword learning) can be adopted without a restart"
            ) from exc
        if added:
            for shard in self._shards:
                self._deltas.apply_delta(shard.index.signal_backfill(added))
                shard.index.adopt_sidecar_keywords(self._deltas.keywords)
            self._adopted_keywords.extend(added)
            self._learned_total.inc(len(added))
        self._deltas.mark_dirty(added or self._deltas.keywords)
        self._db_version = self._database.version
        return added

    def _ingest(
        self,
        events_per_shard: Sequence[Sequence[PostEvent]],
        upto_year: Optional[int],
    ) -> StreamTick:
        """One merged tick over each shard's micro-batch."""
        self._sync_database()
        with self._trace.tick():
            deltas = self._deltas
            jobs = [
                _ShardJob(
                    keywords=deltas.keywords,
                    region=deltas.region,
                    posts=tuple(event.post for event in events),
                    post_filter=self._filter,
                    analyzer=deltas.analyzer,
                )
                for events in events_per_shard
            ]
            # The embarrassingly parallel stage: filter, columnize and
            # fold every shard batch.  Serial, thread and process
            # executors produce identical outcomes; only wall-clock
            # differs.
            with self._trace.span("shard_map"):
                outcomes = self._executor.map(_run_shard_job, jobs)

            accepted_counts: List[int] = []
            events_total = 0
            rejected = 0
            with self._trace.span("shard_merge"):
                for shard, events, job, (delta, report, columns, runs) in zip(
                    self._shards, events_per_shard, jobs, outcomes
                ):
                    leg_start = time.perf_counter()
                    if report is not None:
                        self._filter_reports.append(report)
                        accepted: Sequence[Post] = report.accepted
                        rejected += len(report.rejected)
                    else:
                        accepted = job.posts
                    shard.index.append(accepted, columns=columns, runs=runs)
                    deltas.apply_delta(delta)
                    shard.posts += len(accepted)
                    events_total += len(events)
                    accepted_counts.append(len(accepted))
                    for event in events:
                        if event.seq > shard.cursor:
                            shard.cursor = event.seq
                    if columns is not None:
                        # The chunk is date-sorted: its last date is
                        # the batch's newest.
                        newest = dt.date.fromordinal(columns.dates[-1])
                        if self._max_date is None or newest > self._max_date:
                            self._max_date = newest
                    shard.ingested.inc(
                        len(accepted), shard=str(shard.shard_id)
                    )
                    shard.merge_seconds.observe(
                        time.perf_counter() - leg_start,
                        shard=str(shard.shard_id),
                    )

            # take_dirty also folds in any dirty keywords a restored
            # checkpoint carried over from an interrupted tick.
            dirty = deltas.take_dirty()
            if upto_year is None and self._max_date is not None:
                upto_year = self._max_date.year
            retuned, rescored, alert = self._evaluator.evaluate(
                deltas, dirty, upto_year
            )
        self._ticks_total.inc()
        self._events_total.inc(events_total)
        self._ingested_total.inc(sum(accepted_counts))
        self._rejected_total.inc(rejected)
        self._dirty_hist.observe(len(dirty))
        self._tick_seq += 1
        tick = StreamTick(
            seq=self._tick_seq,
            events=events_total,
            accepted=sum(accepted_counts),
            rejected=rejected,
            dirty=tuple(sorted(dirty)),
            retuned=retuned,
            rescored=rescored,
            alert=alert,
            upto_year=upto_year,
            shard_accepted=tuple(accepted_counts),
        )
        self._ticks.append(tick)
        return tick

    def tick(self, batch_size: Optional[int] = None) -> Optional[StreamTick]:
        """Consume one micro-batch per shard as a single merged tick.

        Returns None when every feed is drained.  Shards that are
        temporarily empty contribute an empty batch — a lagging region
        does not stall the others.
        """
        limit = batch_size or self._batch_size
        events_per_shard = [
            shard.feed.events_after(shard.cursor, limit=limit)
            for shard in self._shards
        ]
        if not any(events_per_shard):
            return None
        return self._ingest(events_per_shard, None)

    def advance_to(
        self, until: dt.date, *, upto_year: Optional[int] = None
    ) -> StreamTick:
        """Consume everything up to ``until`` on every shard as one tick.

        This is the monitor-compatibility driver: the batch monitor's
        ``tick(year)`` maps to ``advance_to(date(year, 12, 31))``.  Empty
        shard batches still evaluate, so the first call establishes the
        baseline table even when no post precedes ``until``.
        """
        events_per_shard = [
            shard.feed.events_after(shard.cursor, until=until)
            for shard in self._shards
        ]
        return self._ingest(
            events_per_shard,
            upto_year if upto_year is not None else until.year,
        )

    def learn_keywords(
        self, *, min_support: float = 0.05, max_new: int = 10
    ) -> Tuple[str, ...]:
        """Mine every shard's retained texts for new keywords.

        Co-occurrence mining runs over the union of the shards' retained
        texts (hot + warm tiers on tiered indexes — learning mines
        recent chatter, not frozen history), then the stream
        synchronizes: aggregates backfill, the learned keywords join the
        dirty set, and the next tick scores them.  Returns the learned
        canonical keywords.
        """
        texts: List[str] = []
        for shard in self._shards:
            texts.extend(shard.index.retained_texts())
        learned = self._database.learn_from_texts(
            texts, min_support=min_support, max_new=max_new
        )
        self._sync_database()
        return tuple(entry.keyword for entry in learned)

    def ingest(
        self,
        events_per_shard: Sequence[Sequence[PostEvent]],
        *,
        upto_year: Optional[int] = None,
    ) -> StreamTick:
        """One merged tick over caller-supplied per-shard event batches.

        The push-style entry point for drivers that generate events on
        the fly (e.g. the retention bench) instead of pre-loading a
        replayable feed per shard: ``events_per_shard[i]`` is shard
        *i*'s micro-batch for this tick.  ``upto_year`` labels the
        tick's alert/result window (default: the newest post's year).
        Feed cursors still advance from the event sequence numbers, so
        push- and pull-style ingest can be mixed.
        """
        if len(events_per_shard) != len(self._shards):
            raise ValueError(
                f"got batches for {len(events_per_shard)} shards, "
                f"runtime has {len(self._shards)}"
            )
        return self._ingest(events_per_shard, upto_year)

    def run(self, batch_size: Optional[int] = None) -> List[StreamTick]:
        """Drain every feed in merged micro-batch ticks."""
        ticks: List[StreamTick] = []
        while True:
            tick = self.tick(batch_size)
            if tick is None:
                return ticks
            ticks.append(tick)

    def close(self) -> None:
        """Release the executor's worker pool (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "ShardedStreamRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpoint support -------------------------------------------------

    def _scalar_state(self) -> Dict[str, object]:
        """Tick counters and evaluator state, shared by every layout."""
        state: Dict[str, object] = {
            "tick_seq": self._tick_seq,
            "max_date": self._max_date.isoformat() if self._max_date else None,
            "since_year": self._evaluator.since_year,
            "db_version": self._db_version,
        }
        state.update(self._evaluator.state_slice())
        return state

    def _load_scalar_state(self, state: Mapping[str, object]) -> None:
        """Restore the :meth:`_scalar_state` fields."""
        self._tick_seq = int(state["tick_seq"])  # type: ignore[arg-type]
        raw_date = state.get("max_date")
        self._max_date = (
            dt.date.fromisoformat(raw_date) if raw_date else None  # type: ignore[arg-type]
        )
        self._evaluator.since_year = state.get("since_year")  # type: ignore[assignment]
        self._evaluator.load_slice(
            state,
            database_matches=state.get("db_version") == self._database.version,
        )

    def state_dict(self, *, include_index: bool = True) -> Dict[str, object]:
        """JSON-serialisable snapshot of all resumable state.

        Per-shard cursors, post counts and columnar index segments, the
        one tracker's aggregates (``deltas``, the key the one-feed
        layout uses) and the shared evaluator state, so a restored
        runtime holds the uninterrupted run's sums bit for bit, reports
        the exact segment layout and answers historical queries
        identically to one that never stopped.  Pass
        ``include_index=False`` for the lean layout — alerts never need
        historical posts (aggregates carry the evidence), so index-less
        snapshots stay fully resumable, merely with per-shard indexes
        that restart empty.
        """
        state: Dict[str, object] = {
            "cursors": list(self.cursors),
            "shard_posts": list(self.shard_posts),
        }
        state.update(self._scalar_state())
        state["deltas"] = self._deltas.state_dict()
        if include_index:
            state["shard_indexes"] = [
                shard.index.state_dict() for shard in self._shards
            ]
        return state

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (same shard count).

        A snapshot with another shard count, index count or keyword set,
        or with spilled segments the store does not hold, is rejected
        before anything is assigned, so the runtime is left as it was.
        """
        cursors = list(state["cursors"])  # type: ignore[arg-type]
        posts = list(state["shard_posts"])  # type: ignore[arg-type]
        if len(cursors) != len(self._shards) or len(posts) != len(
            self._shards
        ):
            raise ValueError(
                f"checkpoint has {len(cursors)} shards, runtime has "
                f"{len(self._shards)}"
            )
        index_states = state.get("shard_indexes")
        if index_states is not None and len(index_states) != len(self._shards):  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint has {len(index_states)} shard indexes, "  # type: ignore[arg-type]
                f"runtime has {len(self._shards)}"
            )
        for position, shard in enumerate(self._shards):
            if index_states is not None:
                shard.index.check_spilled(index_states[position])  # type: ignore[index]
        # The tracker checks the keyword set before it assigns anything.
        self._deltas.load_state(state["deltas"])  # type: ignore[arg-type]
        self._load_scalar_state(state)
        for position, (shard, cursor, count) in enumerate(
            zip(self._shards, cursors, posts)
        ):
            shard.cursor = int(cursor)
            shard.posts = int(count)
            if index_states is not None:
                shard.index.load_state(index_states[position])  # type: ignore[index]


class StreamRuntime(ShardedStreamRuntime):
    """:class:`ShardedStreamRuntime` over one feed.

    The tick, drivers, keyword learning and stats are the shared ones;
    this class adds what a single feed needs: its :attr:`cursor` and
    :attr:`index`, a flat :meth:`ingest`, :meth:`step`, and the file
    checkpoint API of :mod:`repro.stream.checkpoint`, whose
    ``cursor``/``deltas``/``index`` layout is the one shard's state.
    Its shard job runs serially.  The arguments are
    :class:`ShardedStreamRuntime`'s, with one ``feed`` in place of
    ``feeds`` and no executor knobs.
    """

    def __init__(
        self,
        feed: FeedSource,
        database: KeywordDatabase,
        *,
        target: Optional[TargetApplication] = None,
        config: Optional[PSPConfig] = None,
        since_year: Optional[int] = None,
        network: Optional[VehicleNetwork] = None,
        tracker: Optional[LifecycleTracker] = None,
        post_filter: Optional[PostAuthenticityFilter] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        compact_ratio: Optional[float] = None,
        warm_span_days: Optional[int] = None,
        cold_age_days: Optional[int] = None,
        spill_dir=None,
        max_resident_cold: Optional[int] = None,
        metrics=None,
    ) -> None:
        super().__init__(
            [feed],
            database,
            target=target,
            config=config,
            since_year=since_year,
            network=network,
            tracker=tracker,
            post_filter=post_filter,
            batch_size=batch_size,
            compact_threshold=compact_threshold,
            compact_ratio=compact_ratio,
            warm_span_days=warm_span_days,
            cold_age_days=cold_age_days,
            spill_dir=spill_dir,
            max_resident_cold=max_resident_cold,
            metrics=metrics,
        )
        self._checkpoint_base_id: Optional[str] = None

    @property
    def cursor(self) -> int:
        """Highest consumed feed sequence number (-1 = nothing yet)."""
        return self._shards[0].cursor

    @property
    def index(self) -> TieredCorpusIndex:
        """The feed's stream index (what it retains of everything ingested)."""
        return self._shards[0].index

    def ingest(
        self,
        events: Sequence[PostEvent],
        *,
        upto_year: Optional[int] = None,
    ) -> StreamTick:
        """Process one micro-batch of the feed's events as a single tick."""
        return self._ingest([events], upto_year)

    def step(self, batch_size: Optional[int] = None) -> Optional[StreamTick]:
        """Consume the next micro-batch; None when the feed is drained."""
        return self.tick(batch_size)

    # -- file checkpoint API ------------------------------------------------

    @property
    def checkpoint_base_id(self) -> Optional[str]:
        """Identity of the last base checkpoint saved from this runtime.

        Set by :func:`~repro.stream.checkpoint.save_checkpoint`; delta
        checkpoints record it so a resume can verify base and delta
        belong together.
        """
        return self._checkpoint_base_id

    def state_dict(self, *, include_index: bool = True) -> Dict[str, object]:
        """The snapshot that :mod:`repro.stream.checkpoint` writes.

        The one shard's ``cursor``, ``deltas`` and (unless
        ``include_index=False``) ``index`` beside the shared scalars.
        """
        shard = self._shards[0]
        state: Dict[str, object] = {"cursor": shard.cursor}
        state.update(self._scalar_state())
        state["deltas"] = self._deltas.state_dict()
        if include_index:
            state["index"] = shard.index.state_dict()
        return state

    def delta_state_dict(self) -> Dict[str, object]:
        """The state changed since the last base checkpoint, O(changed).

        Scalars (cursor, table, counters, cached classifications — all
        O(keywords) at most) are always included; the keyword×year
        aggregate buckets, the part whose size grows with history, are
        restricted to the keywords dirtied since
        :attr:`checkpoint_base_id` was saved.
        """
        state: Dict[str, object] = {"cursor": self.cursor}
        state.update(self._scalar_state())
        state["deltas_delta"] = self._deltas.delta_state()
        return state

    def mark_checkpoint_base(self, base_id: str) -> None:
        """Record that a base checkpoint now covers the current state."""
        self._checkpoint_base_id = base_id
        self._deltas.mark_snapshot()

    def adopt_checkpoint_base(self, base_id: str) -> None:
        """Adopt an existing base as this runtime's delta reference.

        Used on restore: the resumed runtime keeps delta-saving against
        the base file it was rebuilt from.  Unlike
        :meth:`mark_checkpoint_base` the snapshot-dirty set is *not*
        cleared — the overlay already restored it relative to that base.
        """
        self._checkpoint_base_id = base_id

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot into this runtime.

        A snapshot with another keyword set, or with spilled segments
        the store does not hold, is rejected before anything is
        assigned, so the runtime is left as it was.
        """
        shard = self._shards[0]
        cursor = int(state["cursor"])  # type: ignore[arg-type]
        index_state = state.get("index")
        if index_state is not None:
            shard.index.check_spilled(index_state)  # type: ignore[arg-type]
        # The tracker checks the keyword set before it assigns anything.
        self._deltas.load_state(state["deltas"])  # type: ignore[arg-type]
        shard.cursor = cursor
        self._load_scalar_state(state)
        # The one feed folded every post the tracker observed.
        shard.posts = self._deltas.observed_posts
        if index_state is not None:
            shard.index.load_state(index_state)  # type: ignore[arg-type]


def _table_state(table: Optional[WeightTable]) -> Optional[Dict[str, object]]:
    """A weight table as plain JSON data (None-safe)."""
    if table is None:
        return None
    from repro.iso21434.enums import AttackVector

    return {
        "ratings": {
            vector.value: table.rating(vector).name for vector in AttackVector
        },
        "source": table.source,
        "note": table.note,
    }


def _table_from_state(
    state: Optional[Mapping[str, object]],
) -> Optional[WeightTable]:
    """Rebuild a weight table from :func:`_table_state` data."""
    if state is None:
        return None
    from repro.iso21434.enums import AttackVector, FeasibilityRating

    ratings = {
        AttackVector(vector): FeasibilityRating[name]
        for vector, name in state["ratings"].items()  # type: ignore[union-attr]
    }
    return WeightTable(
        ratings,
        source=str(state.get("source", "psp")),
        note=str(state.get("note", "")),
    )
