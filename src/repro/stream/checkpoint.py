"""Stop/resume for the streaming runtime.

A :class:`~repro.stream.runtime.StreamRuntime` is resumable because all
of its alert-relevant state is small and additive: the feed cursor, the
per-keyword running aggregates, the cached classifications and the
insider table last in force.  :func:`save_checkpoint` writes that state
as one JSON document; :func:`restore_runtime` builds a fresh runtime
around the same feed/database and loads it back.  The resumed runtime
consumes the feed from ``cursor + 1`` and emits exactly the alerts the
uninterrupted run would have emitted from that point (asserted in
``tests/stream/test_checkpoint.py``).

Long-running monitors additionally get **delta checkpoints**: a *base*
checkpoint persists everything and marks a snapshot point; from then on
:func:`save_delta_checkpoint` writes only the keywords whose aggregates
were dirtied since that base (plus the O(keywords)-bounded scalars), so
the recurring save cost is O(changed keywords) instead of O(all
keyword×year history).  Each delta is *cumulative against its base* —
``base + latest delta`` is always a complete restore point, and older
deltas can simply be deleted.  :func:`restore_runtime` accepts either a
base checkpoint or a ``(delta, base=...)`` pair and verifies the two
belong together via the base's content-derived id.

A base checkpoint also carries the stream index (its tiers, in the
:meth:`~repro.stream.tiers.TieredCorpusIndex.state_dict` layout), so a
restored runtime answers historical queries like the one that stopped.
``include_index=False`` writes the lean layout instead: alerting never
needs historical posts (the aggregates carry the evidence), so the
index may restart empty.  Delta checkpoints never carry the index, and
a delta restore starts it empty.

Version 2 is the current layout.  Version-1 files still restore: they
differ only in the index of a runtime without retention knobs, which
version 1 wrote in the flat ``base``/``tail`` layout that
:meth:`~repro.stream.tiers.TieredCorpusIndex.load_state` still reads.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.stream.runtime import StreamRuntime
from repro.stream.store import StoreError

#: Bump on incompatible checkpoint layout changes.
CHECKPOINT_VERSION = 2

#: Versions :func:`load_checkpoint` and :func:`restore_runtime` accept.
_READABLE_VERSIONS = (1, CHECKPOINT_VERSION)

#: Payload kinds; payloads without a ``kind`` are legacy base snapshots.
KIND_BASE = "base"
KIND_DELTA = "delta"


def _state_id(state: Dict[str, Any]) -> str:
    """A deterministic content id of one runtime state document."""
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def checkpoint_state(
    runtime: StreamRuntime, *, include_index: bool = True
) -> Dict[str, Any]:
    """The runtime's resumable state as a JSON-serialisable document.

    ``include_index=False`` writes the lean pre-columnar layout: the
    corpus index is omitted and restarts empty on restore (alerts never
    need historical posts), trading query history for checkpoint size.
    """
    state = runtime.state_dict(include_index=include_index)
    # A base checkpoint *is* the snapshot: relative to this document
    # nothing is unsaved, so the persisted snapshot-dirty set is empty —
    # a runtime restored from this base delta-saves only what it
    # changes afterwards, not the pre-save backlog.
    state["deltas"] = dict(state["deltas"])
    state["deltas"]["dirty_since_snapshot"] = []
    # Operator-facing context, deliberately outside the base_id hash:
    # what the index looked like at save time (including per-tier rows
    # of a tiered layout) and, for instrumented runtimes, the telemetry
    # registry snapshot so a resume continues counters instead of
    # restarting them from zero.
    metadata: Dict[str, Any] = {"segment_stats": runtime.index.segment_stats}
    # A spilling index stores cold columns outside this file: record
    # the directory so an operator restoring elsewhere knows which one
    # to bring along (--spill-dir on restore).
    store = runtime.store
    if store is not None:
        metadata["store"] = {
            "directory": str(store.directory),
            "segments": store.segment_count,
            "bytes": store.bytes_on_disk,
        }
    if runtime.metrics.enabled:
        metadata["metrics"] = runtime.metrics.snapshot()
    return {
        "checkpoint_version": CHECKPOINT_VERSION,
        "kind": KIND_BASE,
        "base_id": _state_id(state),
        "metadata": metadata,
        "runtime": state,
    }


def save_checkpoint(
    runtime: StreamRuntime,
    path: Union[str, Path],
    *,
    include_index: bool = True,
) -> Path:
    """Write a full (base) checkpoint file; returns the written path.

    Marks the snapshot point on the runtime: subsequent
    :func:`save_delta_checkpoint` calls persist only what changed from
    here on.

    Raises:
        TypeError: for runtimes other than :class:`StreamRuntime` — a
            multi-feed :class:`~repro.stream.runtime.ShardedStreamRuntime`
            persists through its own ``state_dict()``/``load_state()``
            (per-shard cursors, post counts and indexes plus the one
            tracker), not this single-feed file format.
    """
    if not isinstance(runtime, StreamRuntime):
        raise TypeError(
            f"save_checkpoint supports StreamRuntime, got "
            f"{type(runtime).__name__}; sharded runtimes persist via "
            "state_dict()/load_state()"
        )
    payload = checkpoint_state(runtime, include_index=include_index)
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    # Only after the write succeeded: a failed save must not convince
    # the runtime its dirty keywords are safely on disk.
    runtime.mark_checkpoint_base(payload["base_id"])
    return destination


def save_delta_checkpoint(
    runtime: StreamRuntime, path: Union[str, Path]
) -> Path:
    """Write an O(changed-keywords) delta against the last base snapshot.

    The delta is cumulative: it carries every keyword dirtied since the
    base was saved, so ``base + this file`` restores the full current
    state regardless of how many earlier deltas exist.

    Raises:
        ValueError: when no base checkpoint was saved from (or adopted
            by) this runtime — a delta needs something to be relative to.
    """
    base_id = runtime.checkpoint_base_id
    if base_id is None:
        raise ValueError(
            "no base checkpoint to delta against — call save_checkpoint "
            "first (or restore from one)"
        )
    payload: Dict[str, Any] = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "kind": KIND_DELTA,
        "base_id": base_id,
        "runtime_delta": runtime.delta_state_dict(),
    }
    if runtime.metrics.enabled:
        # Same contract as the base's metadata block: advisory, outside
        # any content hash, and the *current* cumulative totals (deltas
        # are cumulative against their base, and so is this snapshot).
        payload["metadata"] = {"metrics": runtime.metrics.snapshot()}
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return destination


def _validated(payload: Dict[str, Any]) -> Dict[str, Any]:
    version = payload.get("checkpoint_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    kind = payload.get("kind", KIND_BASE)
    if kind == KIND_BASE and "runtime" not in payload:
        raise ValueError("checkpoint has no 'runtime' state")
    if kind == KIND_DELTA and "runtime_delta" not in payload:
        raise ValueError("delta checkpoint has no 'runtime_delta' state")
    if kind not in (KIND_BASE, KIND_DELTA):
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    return payload


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a checkpoint file (base or delta)."""
    return _validated(json.loads(Path(path).read_text()))


def _as_payload(
    source: Union[str, Path, Dict[str, Any]],
) -> Dict[str, Any]:
    if isinstance(source, (str, Path)):
        return load_checkpoint(source)
    return _validated(source)


def _overlay_delta(
    base_state: Dict[str, Any], delta_state: Dict[str, Any]
) -> Dict[str, Any]:
    """The full runtime state of ``base + delta`` (pure dict surgery).

    Scalars and O(keywords) maps come from the delta wholesale; the
    keyword×year aggregate buckets and votes start from the base and
    every keyword the delta recorded is *replaced* (deltas store full
    current per-keyword values, so overlay is replace, not add).
    """
    state = dict(base_state)
    # Delta checkpoints carry no index columns, and the base's index
    # predates the delta's cursor — restoring it would silently hide
    # the posts ingested in between.  Delta resumes keep the lean
    # behaviour: the index restarts empty.
    state.pop("index", None)
    deltas_delta = delta_state["deltas_delta"]
    for key, value in delta_state.items():
        if key != "deltas_delta":
            state[key] = value
    tracker_state = dict(base_state["deltas"])
    buckets = dict(tracker_state["buckets"])
    votes = dict(tracker_state["votes"])
    for keyword, entry in deltas_delta["changed"].items():
        buckets[keyword] = entry["buckets"]
        votes[keyword] = entry["votes"]
    tracker_state["buckets"] = buckets
    tracker_state["votes"] = votes
    tracker_state["observed"] = deltas_delta["observed"]
    tracker_state["dirty"] = deltas_delta["dirty"]
    # Relative to the shared base, exactly these keywords are still
    # unsnapshotted — the next delta save must cover at least them.
    tracker_state["dirty_since_snapshot"] = sorted(deltas_delta["changed"])
    state["deltas"] = tracker_state
    return state


class CheckpointRotation:
    """Rotating base+delta checkpointing for a long-running runtime.

    Delta checkpoints are cumulative against their base, so over a long
    run the delta grows until it approaches the base's own size and the
    O(changed)-save advantage evaporates.  This manager owns a
    checkpoint directory and, on every :meth:`save`:

    * writes the first save as a base checkpoint;
    * afterwards writes a cumulative delta against the current base;
    * when the delta file outgrows ``max_delta_ratio`` × the base file,
      *rotates*: a fresh base is written (resetting the snapshot point)
      and every file of the old generation — the old base and its
      deltas — is pruned;
    * within a generation, a new delta supersedes the previous one
      (deltas are cumulative), so the superseded delta file is pruned
      immediately.

    The directory therefore never holds more than one base and one
    delta; :meth:`restore_sources` returns them in the order
    :func:`restore_runtime` expects.
    """

    def __init__(
        self,
        runtime: StreamRuntime,
        directory: Union[str, Path],
        *,
        max_delta_ratio: float = 0.5,
        prune: bool = True,
    ) -> None:
        if max_delta_ratio <= 0:
            raise ValueError(
                f"max_delta_ratio must be > 0, got {max_delta_ratio}"
            )
        self._runtime = runtime
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._max_delta_ratio = max_delta_ratio
        self._prune = prune
        self._generation = 0
        self._delta_seq = 0
        self._base_path: Optional[Path] = None
        self._delta_path: Optional[Path] = None
        self.rotations = 0
        self.pruned_files: List[Path] = []

    @property
    def directory(self) -> Path:
        """The managed checkpoint directory."""
        return self._directory

    @property
    def base_path(self) -> Optional[Path]:
        """The live base checkpoint file (None before the first save)."""
        return self._base_path

    @property
    def delta_path(self) -> Optional[Path]:
        """The live delta file (None right after a base write)."""
        return self._delta_path

    def _remove(self, path: Optional[Path]) -> None:
        if path is None or not self._prune:
            return
        if path.exists():
            path.unlink()
            self.pruned_files.append(path)

    def _write_base(self) -> Path:
        self._generation += 1
        self._delta_seq = 0
        path = self._directory / f"base-{self._generation:06d}.json"
        save_checkpoint(self._runtime, path)
        old_base, old_delta = self._base_path, self._delta_path
        self._base_path = path
        self._delta_path = None
        self._remove(old_delta)
        self._remove(old_base)
        return path

    def save(self) -> Path:
        """Persist the current runtime state; returns the file written.

        Usually a delta; a base on the first call and on rotation.
        """
        if self._base_path is None:
            return self._write_base()
        self._delta_seq += 1
        path = (
            self._directory
            / f"delta-{self._generation:06d}-{self._delta_seq:06d}.json"
        )
        save_delta_checkpoint(self._runtime, path)
        base_size = self._base_path.stat().st_size
        if path.stat().st_size > self._max_delta_ratio * base_size:
            # The cumulative delta no longer buys anything over a full
            # snapshot — start a new generation and drop the old one
            # (including the oversized delta just written).
            self._remove(path)
            self.rotations += 1
            return self._write_base()
        superseded = self._delta_path
        self._delta_path = path
        self._remove(superseded)
        return path

    def restore_sources(
        self,
    ) -> Tuple[Path, Optional[Path]]:
        """The live ``(source, base)`` pair for :func:`restore_runtime`.

        When a delta exists, ``source`` is the delta and ``base`` the
        base it was saved against; otherwise the base alone restores and
        ``base`` is None.
        """
        if self._base_path is None:
            raise ValueError("nothing saved yet — call save() first")
        if self._delta_path is not None:
            return self._delta_path, self._base_path
        return self._base_path, None


def restore_runtime(
    source: Union[str, Path, Dict[str, Any]],
    feed,
    database,
    *,
    base: Optional[Union[str, Path, Dict[str, Any]]] = None,
    **runtime_kwargs: Any,
) -> StreamRuntime:
    """Build a runtime resumed from a checkpoint.

    Args:
        source: a checkpoint file path or an already-loaded payload —
            either a base snapshot or a delta checkpoint.
        feed: the feed to resume from (must replay the same events the
            checkpointed runtime consumed — stability is part of the
            :class:`~repro.stream.feed.FeedSource` contract).
        database: the keyword database (keyword set must match the
            checkpoint).
        base: the base checkpoint (path or payload) a delta ``source``
            is relative to; required for deltas, ignored for bases.
            The base's content id must match the one the delta recorded.
        **runtime_kwargs: forwarded to :class:`StreamRuntime` — target,
            config, network, tracker, post_filter, batch sizes, and the
            spill knobs (``spill_dir``/``max_resident_cold``):
            a checkpoint whose index spilled cold segments restores only
            with its store re-attached (pass the checkpoint metadata's
            store directory), and a resident checkpoint restored with a
            spill knob re-spills its cold segments on load.  The
            checkpoint's ``since_year`` is restored automatically.

    Raises:
        StoreError: when the checkpoint references spilled segments and
            no store is attached (or the store is missing them) — a
            clear degradation message, not a mid-query stack trace.
    """
    payload = _as_payload(source)
    if payload.get("kind", KIND_BASE) == KIND_DELTA:
        if base is None:
            raise ValueError(
                "restoring from a delta checkpoint needs base=<the base "
                "checkpoint it was saved against>"
            )
        base_payload = _as_payload(base)
        if base_payload.get("kind", KIND_BASE) != KIND_BASE:
            raise ValueError("base= must be a base checkpoint, got a delta")
        base_id = base_payload.get("base_id")
        if base_id is not None and base_id != payload["base_id"]:
            raise ValueError(
                f"delta was saved against base {payload['base_id']!r}, "
                f"got base {base_id!r}"
            )
        state = _overlay_delta(base_payload["runtime"], payload["runtime_delta"])
        adopted_base_id = payload["base_id"]
        # Deltas carry cumulative totals; fall back to the base's
        # snapshot only when the delta predates metrics support.
        metrics_snapshot = payload.get("metadata", {}).get(
            "metrics"
        ) or base_payload.get("metadata", {}).get("metrics")
    else:
        state = payload["runtime"]
        adopted_base_id = payload.get("base_id")
        metrics_snapshot = payload.get("metadata", {}).get("metrics")
    runtime = StreamRuntime(
        feed,
        database,
        since_year=state.get("since_year"),
        **runtime_kwargs,
    )
    try:
        runtime.load_state(state)
    except StoreError as error:
        raise StoreError(f"checkpoint restore failed: {error}") from None
    if metrics_snapshot is not None and runtime.metrics.enabled:
        # Counter continuity: the resumed registry starts from the saved
        # totals, so resumed + uninterrupted runs agree on cumulative
        # counts (asserted in tests/stream/test_checkpoint.py).  Gauges
        # are point-in-time sizes the runtime's collectors refresh at
        # export; restored, they would add onto the live shard values.
        cumulative = {
            name: entry
            for name, entry in metrics_snapshot["metrics"].items()
            if entry["kind"] != "gauge"
        }
        runtime.metrics.restore({**metrics_snapshot, "metrics": cumulative})
    if adopted_base_id is not None:
        # The restored runtime can keep delta-saving against the same
        # base file — no fresh base required after every resume.
        runtime.adopt_checkpoint_base(adopted_base_id)
    return runtime
