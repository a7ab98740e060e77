"""Streaming PSP runtime: incremental ingest over an event-sourced feed.

The batch engines (indexed corpus, batched pipeline, compile-once TARA)
assume an immutable corpus: growing the analysis window means re-running
everything.  This package is their streaming counterpart — the paper's
"runtime model environment" (§IV) taken literally:

* :mod:`repro.stream.feed` — posts as replayable :class:`PostEvent`
  streams behind the :class:`FeedSource` protocol;
* :mod:`repro.stream.tiers` — the stream index
  (:class:`TieredCorpusIndex`: an appendable hot tail / date-bounded
  warm segments / immutable cold segments with aggregate sidecars,
  query-equivalent to a from-scratch rebuild; without retention knobs
  it keeps the whole history warm);
* :mod:`repro.stream.deltas` — dirty-keyword tracking and running SAI
  aggregates, so an arriving micro-batch updates keyword evidence in
  O(new posts) instead of O(corpus);
* :mod:`repro.stream.runtime` — the one tick implementation,
  :class:`ShardedStreamRuntime`: N feeds with one index each, additive
  :class:`SignalDelta` shard batches dispatched through a pluggable
  executor and applied to one tracker, and one :class:`TickEvaluator`
  pass (conditional weight retune → conditional TARA rescore) per tick,
  emitting :class:`~repro.core.monitor.TrendAlert` records;
  :class:`StreamRuntime` is that runtime over one feed;
* :mod:`repro.stream.sharding` — feed partitioning
  (:func:`partition_posts`, :func:`shard_feeds`);
* :mod:`repro.stream.checkpoint` — stop/resume without replaying the
  feed, as full base snapshots or O(changed-keywords) delta
  checkpoints, with :class:`CheckpointRotation` managing base/delta
  generations on disk;
* :mod:`repro.stream.replay` — the long-horizon replay harness: any
  registered scenario driven boundary-by-boundary against the batch
  monitor with alert-parity, checkpoint-parity and bounded-memory
  audits (``repro replay`` on the CLI).
"""

from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointRotation,
    load_checkpoint,
    restore_runtime,
    save_checkpoint,
    save_delta_checkpoint,
)
from repro.stream.deltas import (
    DeltaTracker,
    KeywordSignals,
    SegmentSidecar,
    SignalDelta,
    compute_signal_delta,
    compute_signal_delta_columnar,
)
from repro.stream.feed import FeedSource, PostEvent, SyntheticFeed
from repro.stream.tiers import (
    DEFAULT_COLD_AGE_DAYS,
    DEFAULT_WARM_SPAN_DAYS,
    TieredCorpusIndex,
)
from repro.stream.replay import (
    BestEffortFeed,
    DelayedFeed,
    FlakyFeed,
    PoisonDefenceReport,
    ReplayReport,
    RetryingFeed,
    month_boundaries,
    replay_poison_defence,
    replay_scenario,
)
from repro.stream.runtime import StreamRuntime, StreamTick, TickEvaluator
from repro.stream.sharding import (
    ShardedStreamRuntime,
    partition_posts,
    shard_feeds,
)

__all__ = [
    "BestEffortFeed",
    "CHECKPOINT_VERSION",
    "CheckpointRotation",
    "DEFAULT_COLD_AGE_DAYS",
    "DEFAULT_WARM_SPAN_DAYS",
    "DelayedFeed",
    "DeltaTracker",
    "FeedSource",
    "FlakyFeed",
    "KeywordSignals",
    "PoisonDefenceReport",
    "PostEvent",
    "ReplayReport",
    "RetryingFeed",
    "SegmentSidecar",
    "ShardedStreamRuntime",
    "SignalDelta",
    "StreamRuntime",
    "StreamTick",
    "SyntheticFeed",
    "TickEvaluator",
    "TieredCorpusIndex",
    "compute_signal_delta",
    "compute_signal_delta_columnar",
    "load_checkpoint",
    "month_boundaries",
    "partition_posts",
    "replay_poison_defence",
    "replay_scenario",
    "restore_runtime",
    "save_checkpoint",
    "save_delta_checkpoint",
    "shard_feeds",
]
