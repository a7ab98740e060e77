"""Live monitoring: the excavator scenario as an event-driven feed.

The paper's conclusion (§IV) positions PSP as "a runtime model
environment".  This example runs that environment literally: the
excavator corpus (paper Fig. 12) is replayed as a live post feed, and a
:class:`~repro.stream.runtime.StreamRuntime` reacts to each micro-batch
incrementally — authenticity filtering, index append, dirty-keyword SAI
updates, and a TARA rescore of the compiled Fig. 4 architecture only
when the insider weight table actually shifts.

Halfway through, the runtime is checkpointed, thrown away and restored
— the resumed runtime must emit exactly the alerts the uninterrupted
run emits, without replaying the feed.

Run with::

    python examples/live_monitor.py
"""

import tempfile
from pathlib import Path

from repro.core.config import TargetApplication
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.poisoning import PostAuthenticityFilter
from repro.social import excavator_corpus, excavator_specs
from repro.stream import (
    StreamRuntime,
    SyntheticFeed,
    restore_runtime,
    save_checkpoint,
)
from repro.vehicle import reference_architecture

BATCH_SIZE = 150


def build_database() -> KeywordDatabase:
    database = KeywordDatabase()
    for spec in excavator_specs():
        database.add(
            AttackKeyword(
                keyword=spec.keyword,
                vector=spec.vector,
                owner_approved=spec.owner_approved,
            )
        )
    return database


def alert_keys(runtime: StreamRuntime):
    """The comparable identity of each emitted alert."""
    return [
        (alert.upto_year, alert.changes, alert.result.insider_table.as_rows())
        for alert in runtime.alerts
    ]


def main() -> None:
    corpus = excavator_corpus()
    target = TargetApplication("excavator", "europe", "industrial")
    network = reference_architecture()

    def new_runtime(database: KeywordDatabase) -> StreamRuntime:
        return StreamRuntime(
            SyntheticFeed.from_corpus(corpus),
            database,
            target=target,
            since_year=2018,
            network=network,
            post_filter=PostAuthenticityFilter(),
            batch_size=BATCH_SIZE,
        )

    # -- uninterrupted reference run -----------------------------------
    reference = new_runtime(build_database())
    ticks = reference.run()
    print(f"live feed: {len(ticks)} micro-batches of <= {BATCH_SIZE} posts")
    for tick in ticks:
        line = tick.describe()
        if tick.alert is not None:
            line += f" — {tick.alert.describe()}"
        print(line)
    counters = reference.runtime_health()["counters"]
    print(
        f"\n{counters['posts_ingested']} posts ingested, "
        f"{counters['retunes']} retunes, {counters['tara_rescores']} TARA "
        f"rescores, {counters['alerts']} alert(s)"
    )

    # -- stop, checkpoint, resume --------------------------------------
    interrupted = new_runtime(build_database())
    for _ in range(len(ticks) // 2):
        interrupted.step()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "live_monitor.ckpt.json"
        save_checkpoint(interrupted, path)
        print(f"\ncheckpoint after tick {len(interrupted.ticks)} "
              f"(cursor {interrupted.cursor}) -> {path.name}")
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(corpus),
            build_database(),
            target=target,
            network=network,
            post_filter=PostAuthenticityFilter(),
            batch_size=BATCH_SIZE,
        )
    resumed.run()

    combined = alert_keys(interrupted) + alert_keys(resumed)
    parity = combined == alert_keys(reference)
    print(f"resume parity: {'OK' if parity else 'MISMATCH'} "
          f"({len(combined)} alert(s) across the interruption)")
    if not parity:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
