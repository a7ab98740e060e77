"""One iteration of one workload, in an interpreter of its own.

    python3 perfbench/workloads.py WORKLOAD --seed N --spawned T --out DIR [--trace]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` counts interpreter start, imports and every
construction up to the first timed operation.  Time spent in the
benchmark's own stream generator and host-speed probe is taken off
``run_s``.  The last line on stdout is one JSON object with the
iteration's raw figures (``probe_s`` is the mean probe time), check
outcomes and digest; with ``--trace`` it also carries the per-layer
figures from the span tracer, and the raw spans are written under
``DIR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

WORKLOADS = ("replay_all", "stream_tiered", "stream_spill")
SHARDS = 2


def _import_program():
    """Import every program module a workload or the tracer touches."""
    import repro.core.cache  # noqa: F401
    import repro.core.monitor  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.nlp.analysis  # noqa: F401
    import repro.obs.views  # noqa: F401
    import repro.social.columnar  # noqa: F401
    import repro.social.multiplatform  # noqa: F401
    import repro.social.registry  # noqa: F401
    import repro.stream.replay  # noqa: F401
    import repro.stream.sharding  # noqa: F401
    import repro.stream.store  # noqa: F401
    import repro.stream.tiers  # noqa: F401
    import repro.tara.model  # noqa: F401
    import repro.tara.scoring  # noqa: F401
    import repro.vehicle  # noqa: F401


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


#: The host-speed probe's fixed work: interpreter dispatch and dict
#: updates, like the program's own, over prebuilt keys so that it
#: allocates nothing and never wakes the garbage collector.
_PROBE_KEYS = tuple(f"k{i % 97}" for i in range(600))


def _probe() -> None:
    counts: dict = {}
    for key in _PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1


class Clock:
    """Run-phase stopwatch that leaves generator and probe time off the clock.

    ``ticks_s`` are the run's ticks in order.  After every tick the clock
    times one host-speed probe (after an untimed one that refills the
    caches), so ``probe_s`` samples the host's speed as often as the
    ticks do; it is not part of any tick or of the run.
    """

    def __init__(self) -> None:
        self.off_clock_s = 0.0
        self.probe_s = 0.0
        self.ticks_s: list = []
        self.posts = 0

    def generate(self, produce):
        begin = time.perf_counter()
        try:
            return produce()
        finally:
            self.off_clock_s += time.perf_counter() - begin

    def tick(self, call):
        begin = time.perf_counter()
        result = call()
        end = time.perf_counter()
        self.ticks_s.append(end - begin)
        self.posts += getattr(result, "accepted", 0)
        _probe()
        probe_begin = time.perf_counter()
        _probe()
        done = time.perf_counter()
        self.probe_s += done - probe_begin
        self.off_clock_s += done - end
        return result


def _time_replay_ticks(clock: Clock) -> None:
    """Time every boundary tick the replay audit makes.

    Those are the batch reference's ``PSPMonitor.tick_date`` and the
    streaming runtimes' ``advance_to``; none of them calls another.
    """
    from repro.core.monitor import PSPMonitor
    from repro.stream.runtime import StreamRuntime
    from repro.stream.sharding import ShardedStreamRuntime

    def timed(original):
        def tick(self, *args, **kwargs):
            return clock.tick(lambda: original(self, *args, **kwargs))

        return tick

    for cls, attr in ((PSPMonitor, "tick_date"),
                      (StreamRuntime, "advance_to"),
                      (ShardedStreamRuntime, "advance_to")):
        setattr(cls, attr, timed(getattr(cls, attr)))


# -- replay_all ---------------------------------------------------------------


def setup_replay_all(seed: int, work: Path, clock: Clock):
    """The registry's 9 scenarios, re-seeded, with every corpus built.

    Seed 0 is the registry as shipped, i.e. exactly what
    ``repro replay --scenario all`` replays; seed n shifts every
    scenario's corpus seed by n.
    """
    from repro.obs.registry import MetricsRegistry
    from repro.social.registry import default_registry

    specs = []
    for spec in default_registry():
        spec = dataclasses.replace(spec, seed=spec.seed + seed)
        spec.corpus()
        spec.client()
        if spec.poisoning:
            spec.poisoned_corpus()
        specs.append(spec)
    _time_replay_ticks(clock)
    return {"specs": specs, "registry": MetricsRegistry()}


def run_replay_all(state, clock: Clock):
    """What ``repro replay --scenario all`` does over the full span."""
    from repro.stream.replay import replay_poison_defence, replay_scenario

    def scenario(spec):
        report = replay_scenario(spec, shards=SHARDS, metrics=state["registry"])
        report.describe()
        defence = replay_poison_defence(spec) if spec.poisoning else None
        if defence is not None:
            defence.describe()
        return report, defence

    state["outcomes"] = [scenario(spec) for spec in state["specs"]]


def check_replay_all(state):
    checks = {}
    summary = []
    for report, defence in state["outcomes"]:
        for invariant in ("alert_parity", "table_parity", "sai_parity",
                          "checkpoint_parity", "memory_bounded"):
            checks[f"{report.scenario}.{invariant}"] = getattr(report, invariant)
        summary.append((
            report.scenario, report.boundaries, report.posts,
            report.stream_alerts, report.batch_alerts, report.retunes,
            report.forced_retunes, report.ok,
        ))
        if defence is not None:
            checks[f"{report.scenario}.poison_all_rejected"] = (
                defence.all_poison_rejected
            )
            checks[f"{report.scenario}.poison_alerts_match"] = defence.alerts_match
            checks[f"{report.scenario}.poison_table_match"] = defence.table_match
            summary.append((defence.poison_rejected, defence.organic_rejected))
    return checks, _digest(summary)


# -- the two streams ------------------------------------------------------------


def _database(shape, *, without=()):
    from repro.core.keywords import KeywordDatabase

    database = KeywordDatabase()
    for topic in shape.topics:
        if topic.keyword not in without:
            database.add(_keyword(topic))
    return database


def _keyword(topic):
    from repro.core.keywords import AttackKeyword
    from repro.iso21434.enums import AttackVector

    return AttackKeyword(
        keyword=topic.keyword,
        vector=AttackVector[topic.vector],
        owner_approved=topic.owner_approved,
    )


def _runtime(database, **knobs):
    from repro.core.config import TargetApplication
    from repro.stream.feed import SyntheticFeed
    from repro.stream.sharding import ShardedStreamRuntime
    from streams import START, TARGET_REGION

    return ShardedStreamRuntime(
        [SyntheticFeed(()) for _ in range(SHARDS)],
        database,
        target=TargetApplication("fleet", TARGET_REGION, "stream"),
        since_year=START.year,
        **knobs,
    )


def _stream_digest(runtime) -> str:
    alerts = [
        (alert.upto_year, [
            (change.vector.name, change.before.name, change.after.name)
            for change in alert.changes
        ])
        for alert in runtime.alerts
    ]
    table = runtime.current_table
    result = runtime.current_result
    return _digest((
        alerts,
        table.as_rows() if table is not None else None,
        result.sai.as_rows() if result is not None else None,
    ))


def _count_checks(runtime, generator, prefix: str = ""):
    """Per keyword x year: runtime window count == generator truth."""
    from streams import START

    checks = {}
    for keyword in generator.keywords():
        for year in range(START.year, START.year + generator.shape.years):
            got = runtime.deltas.window_count(
                keyword, since_year=year, until_year=year
            )
            checks[f"{prefix}count.{keyword}.{year}"] = (
                got == generator.truth.get((keyword, year), 0)
            )
    return checks


def setup_stream_tiered(seed: int, work: Path, clock: Clock):
    from repro.vehicle import reference_architecture
    from streams import TIERED, StreamGenerator

    runtime = _runtime(
        _database(TIERED),
        network=reference_architecture(),
        warm_span_days=90,
        cold_age_days=365,
    )
    return {"runtime": runtime, "generator": StreamGenerator(TIERED, seed)}


def run_stream_tiered(state, clock: Clock):
    from streams import tick_batches

    runtime = state["runtime"]
    generator = state["generator"]
    seqs = [0] * SHARDS
    for _ in range(generator.shape.days):
        batches = clock.generate(
            lambda: tick_batches(generator.next_day()[1], SHARDS, seqs)
        )
        clock.tick(lambda: runtime.ingest(batches))


def check_stream_tiered(state):
    runtime = state["runtime"]
    checks = _count_checks(runtime, state["generator"])
    checks["alerts_fired"] = len(runtime.alerts) >= 1
    checks["tara_rescored"] = runtime.evaluator.rescores >= 1
    digest = _stream_digest(runtime)
    runtime.close()
    return checks, digest


#: Share of the spill stream's days after which the late keyword joins
#: the database, and after which the checkpoint is taken.
LATE_AT = 0.6
CHECKPOINT_AT = 0.9


def setup_stream_spill(seed: int, work: Path, clock: Clock):
    from streams import LATE_KEYWORD, SPILL, StreamGenerator

    spill_dir = work / "store"
    shutil.rmtree(spill_dir, ignore_errors=True)
    knobs = dict(
        warm_span_days=15,
        cold_age_days=120,
        spill_dir=spill_dir,
        max_resident_cold=4,
    )
    database = _database(SPILL, without=(LATE_KEYWORD,))
    return {
        "runtime": _runtime(database, **knobs),
        "database": database,
        "knobs": knobs,
        "generator": StreamGenerator(SPILL, seed),
    }


def run_stream_spill(state, clock: Clock):
    from streams import LATE_KEYWORD, SPILL, tick_batches

    runtime = state["runtime"]
    generator = state["generator"]
    late = next(t for t in SPILL.topics if t.keyword == LATE_KEYWORD)
    days = generator.shape.days
    late_at = int(days * LATE_AT)
    checkpoint_at = int(days * CHECKPOINT_AT)
    seqs = [0] * SHARDS
    tail = []
    saved = None
    for day in range(days):
        batches = clock.generate(
            lambda: tick_batches(generator.next_day()[1], SHARDS, seqs)
        )
        if day == late_at:
            state["database"].add(_keyword(late))
        if day == checkpoint_at:
            saved = json.dumps(runtime.state_dict())
        if day >= checkpoint_at:
            tail.append(batches)
        clock.tick(lambda: runtime.ingest(batches))
    state["store_stats"] = dict(runtime.store.stats)
    result = runtime.current_result
    state["final_sai"] = result.sai.as_rows() if result is not None else None
    state["digest"] = _stream_digest(runtime)
    runtime.close()

    resumed = _runtime(_database(SPILL), **state["knobs"])
    resumed.load_state(json.loads(saved))
    for batches in tail:
        clock.tick(lambda: resumed.ingest(batches))
    result = resumed.current_result
    state["resumed_sai"] = result.sai.as_rows() if result is not None else None
    state["resumed"] = resumed


def check_stream_spill(state):
    runtime = state["runtime"]
    resumed = state["resumed"]
    checks = _count_checks(runtime, state["generator"])
    checks.update(_count_checks(resumed, state["generator"], "resumed."))
    checks["hydrated"] = state["store_stats"]["hydrations"] >= 1
    checks["resumed_sai_equal"] = (
        state["final_sai"] is not None
        and state["final_sai"] == state["resumed_sai"]
    )
    resumed.close()
    return checks, state["digest"]


STEPS = {
    "replay_all": (setup_replay_all, run_replay_all, check_replay_all),
    "stream_tiered": (setup_stream_tiered, run_stream_tiered, check_stream_tiered),
    "stream_spill": (setup_stream_spill, run_stream_spill, check_stream_spill),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    work = args.out / args.workload
    work.mkdir(parents=True, exist_ok=True)

    import_begin = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - import_begin

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    setup, run, check = STEPS[args.workload]
    clock = Clock()
    state = setup(args.seed, work, clock)
    setup_s = time.monotonic() - args.spawned

    begin = time.perf_counter()
    run(state, clock)
    run_s = time.perf_counter() - begin - clock.off_clock_s
    if tracer is not None:
        tracer.uninstall()

    checks, digest = check(state)
    figures = {
        "setup_s": setup_s,
        "run_s": run_s,
        "posts": clock.posts,
        "ticks_ms": [seconds * 1e3 for seconds in clock.ticks_s],
        "probe_s": clock.probe_s / len(clock.ticks_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "digest": digest,
    }
    if tracer is not None:
        figures["layers"] = layers.figures(tracer, import_s)
        tracer.recorder.write(work / "spans")
    shutil.rmtree(work / "store", ignore_errors=True)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
