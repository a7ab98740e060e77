"""Command-line interface for the PSP framework.

Exposes the bundled paper scenarios so the reproduction can be driven
without writing code::

    python -m repro sai --scenario excavator
    python -m repro tune --scenario ecm --since-year 2022
    python -m repro compare --scenario ecm --split-year 2022
    python -m repro financial --scenario excavator --keyword dpfdelete
    python -m repro tara --psp
    python -m repro fleet --scenario excavator \
        --applications excavator,agricultural_tractor,light_truck
    python -m repro replay --scenario busfleet --months 24 --shards 2

Every subcommand prints the same fixed-width tables the report module
renders and exits 0 on success.  Scenarios come from the declarative
registry (:mod:`repro.social.registry`): the paper's calibrated corpora
plus the extended fleet (tractor, motorcycle, EV, marine, bus fleet,
slang-ECM) with their platform mixes and adversarial overlays.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import PSPFramework, TargetApplication, TimeWindow
from repro.core.errors import PSPError
from repro.iso21434.feasibility.attack_vector import standard_table
from repro.social import get_scenario, scenario_names
from repro.tara import (
    BatchTaraScorer,
    compare_runs,
    compile_threat_model,
    fleet_taras,
    render_financial,
    render_sai,
    render_tara,
    render_weight_table,
)
from repro.vehicle import reference_architecture

SCENARIOS = scenario_names()


def _scenario_parts(scenario: str):
    """(client, target, database) for one registered scenario."""
    spec = get_scenario(scenario)
    return spec.client(), spec.target, spec.database()


def _framework_for(scenario: str, *, cache: bool = False) -> PSPFramework:
    """Build the framework for one registered scenario."""
    client, target, database = _scenario_parts(scenario)
    return PSPFramework(client, target, database=database, cache=cache)


def _window_from(args: argparse.Namespace) -> TimeWindow:
    if getattr(args, "since_year", None):
        return TimeWindow.since_year(args.since_year)
    return TimeWindow.full_history()


def _cmd_sai(args: argparse.Namespace) -> int:
    psp = _framework_for(args.scenario)
    sai = psp.compute_sai(_window_from(args))
    print(render_sai(sai, title=f"SAI — {args.scenario}", top=args.top))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    psp = _framework_for(args.scenario)
    result = psp.run(_window_from(args), learn=False)
    print(render_weight_table(result.outsider_table, "Outsider weight table"))
    print()
    print(render_weight_table(result.insider_table, "Insider weight table (PSP)"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    psp = _framework_for(args.scenario)
    before, after, inversions = psp.compare_windows(
        TimeWindow.full_history(), TimeWindow.since_year(args.split_year)
    )
    print(render_weight_table(standard_table(), "Original G.9 table"))
    print()
    print(render_weight_table(before.insider_table, "PSP revision, full history"))
    print()
    print(
        render_weight_table(
            after.insider_table, f"PSP revision, since {args.split_year}"
        )
    )
    for inversion in inversions:
        print(f"Trend inversion: {inversion.describe()}")
    return 0


def _cmd_financial(args: argparse.Namespace) -> int:
    psp = _framework_for(args.scenario)
    assessment = psp.assess_financial(args.keyword)
    print(render_financial(assessment))
    return 0


def _cmd_tara(args: argparse.Namespace) -> int:
    # Compile the architecture once; static and PSP-tuned runs are two
    # scoring sweeps over the same compiled threat model.
    network = reference_architecture()
    scorer = BatchTaraScorer(compile_threat_model(network))
    static = scorer.score()
    if not args.psp:
        print(render_tara(static, min_risk=args.min_risk))
        return 0
    insider_table = _framework_for("ecm").run(learn=False).insider_table
    tuned = scorer.score(insider_table=insider_table)
    print(render_tara(tuned, min_risk=args.min_risk))
    disagreements = compare_runs(network, static, tuned)
    print(
        f"\n{len(disagreements)} of {len(static.records)} threat scenarios "
        "rated differently vs the static model"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    psp = _framework_for(args.scenario, cache=True)
    applications = [a.strip() for a in args.applications.split(",") if a.strip()]
    if not applications:
        print("error: --applications must name at least one application",
              file=sys.stderr)
        return 2
    targets = tuple(
        TargetApplication(application, args.region, "fleet")
        for application in applications
    )
    fleet = psp.run_fleet(
        targets, window=_window_from(args), workers=args.workers
    )

    network = reference_architecture()
    report = fleet_taras(network, fleet)
    disagreements = report.disagreements(network)

    print(f"Fleet assessment — {len(fleet)} targets, "
          f"{fleet.query_passes} platform query pass(es), "
          f"window: {fleet.window.describe()}")
    header = f"{'target':<40} {'top attack':<16} {'retuned':>8} {'disagree':>9}"
    print(header)
    print("-" * len(header))
    for member in fleet:
        description = member.target.describe()
        ranking = member.sai.ranking()
        top = ranking[0] if ranking and member.sai[0].score > 0 else "-"
        retuned = len(member.tuning.changed_vectors())
        moved = len(disagreements[description])
        print(f"{description:<40} {top:<16} {retuned:>8} {moved:>9}")
    stats = psp.cache_stats
    if stats is not None:
        query = stats["query"]
        print(f"\nquery cache: {int(query['hits'])} hits / "
              f"{int(query['lookups'])} lookups "
              f"({query['hit_rate']:.0%} hit rate)")
    return 0


def _write_metrics(registry, base: str) -> None:
    """Write ``<base>.prom`` + ``<base>.json`` exports of one registry."""
    from pathlib import Path

    from repro.obs.export import prometheus_text, write_snapshot

    prom = Path(f"{base}.prom")
    prom.parent.mkdir(parents=True, exist_ok=True)
    prom.write_text(prometheus_text(registry))
    snapshot = write_snapshot(registry, f"{base}.json")
    print(f"metrics written: {prom} {snapshot}")


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.poisoning import PostAuthenticityFilter
    from repro.obs.registry import MetricsRegistry
    from repro.obs import views as obs_views
    from repro.stream.sharding import ShardedStreamRuntime, shard_feeds
    from repro.vehicle import reference_architecture

    spec = get_scenario(args.scenario)
    target, database = spec.target, spec.database()
    registry = (
        MetricsRegistry() if args.stats or args.metrics_out else None
    )
    shared = dict(
        target=target,
        since_year=args.start_year,
        network=reference_architecture() if args.tara else None,
        post_filter=PostAuthenticityFilter() if args.filter else None,
        batch_size=args.batch_size,
        compact_ratio=args.compact_ratio,
        warm_span_days=args.warm_span,
        cold_age_days=args.cold_age,
        spill_dir=args.spill_dir,
        max_resident_cold=args.max_resident_cold,
        metrics=registry,
    )
    posts = spec.corpus().posts
    runtime = ShardedStreamRuntime(
        shard_feeds(posts, args.shards),
        database,
        workers=args.workers,
        **shared,
    )
    print(
        f"streaming {args.scenario}: {len(posts)} posts over "
        f"{args.shards} shard(s) ({runtime.executor.kind} executor), "
        f"micro-batches of {args.batch_size} per shard"
    )
    try:
        for tick in runtime.run():
            line = tick.describe()
            if tick.alert is not None:
                line += f" — {tick.alert.describe()}"
            print(line)
    finally:
        runtime.close()
    health = runtime.runtime_health()
    counters = health["counters"]
    print(
        f"\n{counters['ticks']} ticks, {counters['posts_ingested']} posts "
        f"ingested ({counters['posts_rejected']} rejected), "
        f"{counters['retunes']} retunes, {counters['tara_rescores']} TARA "
        f"rescores, {counters['alerts']} alert(s)"
    )
    def tier_lines(segments):
        tiers = segments["tiers"]
        hot, warm, cold = tiers["hot"], tiers["warm"], tiers["cold"]
        lines = [
            f"  hot:  {hot['posts']} posts across {hot['spans']} span(s)",
            f"  warm: {warm['posts']} posts in {warm['chunks']} chunk(s) "
            f"over {warm['spans']} span(s), {warm['arena_chars']} arena "
            f"chars, last seal @append {warm['last_seal_append']}, last "
            f"consolidation @append {warm['last_consolidation_append']}",
            f"  cold: {cold['posts']} posts in {cold['segments']} "
            f"segment(s) ({cold['spilled']} spilled), {cold['sidecars']} "
            f"sidecar(s) holding {cold['sidecar_entries']} keyword-year "
            f"entries, last seal @append {cold['last_seal_append']}",
            f"  seals: {segments['hot_seals']} hot, "
            f"{segments['consolidations']} consolidation(s), "
            f"{segments['cold_seals']} cold; interner retains "
            f"{segments['interned_texts']} texts "
            f"({segments['interner_evicted']} evicted)",
        ]
        store = segments.get("store")
        if store is not None:
            lines.append(
                f"  store: {store['segments']} segment(s), "
                f"{store['bytes']} bytes at {store['directory']}; "
                f"{store['spills']} spill(s), {store['hydrations']} "
                f"hydration(s), {store['cache_hits']} cache hit(s), "
                f"{store['cache_evictions']} eviction(s), "
                f"{store['resident']}/{store['max_resident_cold']} resident"
            )
        return lines

    for shard in health["shard_stats"]:
        segments = shard["index"]
        print(
            f"shard {shard['shard']}: {shard['posts']} posts, index "
            f"segments: base {segments['base_posts']} + tail "
            f"{segments['tail_posts']} posts, {segments['hot_seals']} "
            "compaction(s)"
        )
        if args.stats:
            for line in tier_lines(segments):
                print(line)
    if counters["learned_keywords"]:
        print(f"learned keywords: {', '.join(counters['learned_keywords'])}")
    if registry is not None:
        described = obs_views.describe_stages(
            obs_views.stage_latencies(registry)
        )
        if described:
            print("tick stage latencies (from the metrics registry):")
            print(described)
        if args.metrics_out:
            _write_metrics(registry, args.metrics_out)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.social import default_registry

    for spec in default_registry():
        print(spec.describe())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        json_snapshot,
        lint_prometheus,
        prometheus_text,
        stats_table,
    )
    from repro.obs.registry import MetricsRegistry
    from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

    spec = get_scenario(args.scenario)
    registry = MetricsRegistry()
    runtime = ShardedStreamRuntime(
        shard_feeds(spec.corpus().posts, args.shards),
        spec.database(),
        target=spec.target,
        batch_size=args.batch_size,
        metrics=registry,
    )
    try:
        ticks = 0
        for _ in runtime.run():
            ticks += 1
            if args.follow and ticks % args.every == 0:
                print(stats_table(registry))
                print()
    finally:
        runtime.close()
    if args.format == "prometheus":
        text = prometheus_text(registry)
        print(text, end="")
        problems = lint_prometheus(text)
        if problems:
            for problem in problems:
                print(f"lint: {problem}", file=sys.stderr)
            return 1
    elif args.format == "json":
        print(json.dumps(json_snapshot(registry), indent=2, sort_keys=True))
    else:
        print(stats_table(registry))
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.registry import MetricsRegistry
    from repro.stream.replay import replay_poison_defence, replay_scenario

    names = SCENARIOS if args.scenario == "all" else (args.scenario,)
    months = args.months
    if args.smoke and months is None:
        months = 2
    # One registry across every scenario in the invocation: the audit
    # counters accumulate and --metrics-out writes a single artifact.
    registry = MetricsRegistry()
    failures = 0
    for name in names:
        report = replay_scenario(
            name,
            months=months,
            shards=args.shards,
            workers=args.workers,
            warm_span_days=args.warm_span,
            cold_age_days=args.cold_age,
            spill_dir=args.spill_dir,
            max_resident_cold=args.max_resident_cold,
            metrics=registry,
        )
        print(report.describe())
        if not report.ok:
            failures += 1
        spec = get_scenario(name)
        if spec.poisoning and not args.smoke:
            defence = replay_poison_defence(name)
            print(defence.describe())
            if not defence.ok:
                failures += 1
        print()
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    if failures:
        print(f"error: {failures} replay audit(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PSP framework: dynamic ISO/SAE-21434 risk assessment",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_scenario(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario", choices=SCENARIOS, default="excavator",
            help="bundled paper scenario (default: excavator)",
        )

    sai = subparsers.add_parser("sai", help="print the SAI ranking")
    add_scenario(sai)
    sai.add_argument("--since-year", type=int, default=None)
    sai.add_argument("--top", type=int, default=0,
                     help="limit to the top N entries (0 = all)")
    sai.set_defaults(handler=_cmd_sai)

    tune = subparsers.add_parser(
        "tune", help="print the PSP-tuned weight tables"
    )
    add_scenario(tune)
    tune.add_argument("--since-year", type=int, default=None)
    tune.set_defaults(handler=_cmd_tune)

    compare = subparsers.add_parser(
        "compare", help="compare full-history vs recent-window tables (Fig. 9)"
    )
    add_scenario(compare)
    compare.add_argument("--split-year", type=int, default=2022)
    compare.set_defaults(handler=_cmd_compare)

    financial = subparsers.add_parser(
        "financial", help="run the financial assessment (Eqs. 1-7)"
    )
    add_scenario(financial)
    financial.add_argument("--keyword", default="dpfdelete")
    financial.set_defaults(handler=_cmd_financial)

    tara = subparsers.add_parser(
        "tara", help="run a full-vehicle TARA on the Fig. 4 architecture"
    )
    tara.add_argument("--psp", action="store_true",
                      help="use the PSP-tuned insider table")
    tara.add_argument("--min-risk", type=int, default=3,
                      help="only print threats at or above this risk value")
    tara.set_defaults(handler=_cmd_tara)

    fleet = subparsers.add_parser(
        "fleet",
        help="assess a fleet of targets in one pass over a shared corpus",
    )
    add_scenario(fleet)
    fleet.add_argument(
        "--applications",
        default="excavator,agricultural_tractor,light_truck",
        help="comma-separated fleet applications "
             "(default: excavator,agricultural_tractor,light_truck)",
    )
    fleet.add_argument("--region", default="europe",
                       help="shared fleet region (default: europe)")
    fleet.add_argument("--since-year", type=int, default=None)
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool size for the per-member sai/split/tune tails "
             "(default: serial)",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    stream = subparsers.add_parser(
        "stream",
        help="replay a scenario as a live feed through the streaming runtime",
    )
    add_scenario(stream)
    stream.add_argument(
        "--batch-size", type=int, default=250,
        help="posts per micro-batch (default: 250)",
    )
    stream.add_argument(
        "--start-year", type=int, default=None,
        help="lower bound of the analysis window (default: open)",
    )
    stream.add_argument(
        "--tara", action="store_true",
        help="compile the Fig. 4 architecture and re-score TARA on alerts",
    )
    stream.add_argument(
        "--filter", action="store_true",
        help="apply the post-authenticity filter per micro-batch",
    )
    stream.add_argument(
        "--shards", type=int, default=1,
        help="fan the corpus into N hash-sharded feeds with per-shard "
             "ingest and one merged evaluation per tick (default: 1)",
    )
    stream.add_argument(
        "--workers", type=int, default=None,
        help="executor parallelism for the shard ingest jobs "
             "(default: serial; degrades to serial on one CPU)",
    )
    stream.add_argument(
        "--compact-ratio", type=float, default=None,
        help="also seal the index's hot tail when it exceeds this ratio "
             "of the sealed posts (default: fixed threshold only)",
    )
    stream.add_argument(
        "--warm-span", type=int, default=None, metavar="DAYS",
        help="tiered retention: seal hot posts into date-bounded warm "
             "segments of this many days (default: no retention; 90 "
             "when only --cold-age is given)",
    )
    stream.add_argument(
        "--cold-age", type=int, default=None, metavar="DAYS",
        help="tiered retention: freeze warm segments older than this "
             "many days into cold segments with aggregate sidecars "
             "(default: no retention; 365 when only --warm-span is "
             "given)",
    )
    stream.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="spill cold segments' columns into a segment store at DIR "
             "(requires tiered retention; only sidecars stay resident)",
    )
    stream.add_argument(
        "--max-resident-cold", type=int, default=None, metavar="N",
        help="LRU bound on hydrated cold segments kept resident "
             "(default: 4; used with --spill-dir)",
    )
    stream.add_argument(
        "--stats", action="store_true",
        help="attach a metrics registry and print the per-tier segment "
             "table plus per-stage tick latencies after the run",
    )
    stream.add_argument(
        "--metrics-out", default=None, metavar="BASE",
        help="write BASE.prom (Prometheus text) and BASE.json (snapshot) "
             "after the run (implies a live registry)",
    )
    stream.set_defaults(handler=_cmd_stream)

    scenarios = subparsers.add_parser(
        "scenarios", help="list the registered scenarios"
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    stats = subparsers.add_parser(
        "stats",
        help="stream a scenario with full telemetry and export the "
             "registry (table, Prometheus text or JSON snapshot)",
    )
    add_scenario(stats)
    stats.add_argument(
        "--batch-size", type=int, default=250,
        help="posts per micro-batch (default: 250)",
    )
    stats.add_argument(
        "--shards", type=int, default=1,
        help="fan the corpus into N hash-sharded feeds (default: 1)",
    )
    stats.add_argument(
        "--format", choices=("table", "prometheus", "json"),
        default="table",
        help="final export format (default: table); 'prometheus' also "
             "lints the exposition text and fails on problems",
    )
    stats.add_argument(
        "--follow", action="store_true",
        help="re-print the live table every --every ticks during the run",
    )
    stats.add_argument(
        "--every", type=int, default=10,
        help="tick interval for --follow refreshes (default: 10)",
    )
    stats.add_argument(
        "--metrics-out", default=None, metavar="BASE",
        help="also write BASE.prom and BASE.json after the run",
    )
    stats.set_defaults(handler=_cmd_stats)

    replay = subparsers.add_parser(
        "replay",
        help="long-horizon replay audit: stream vs batch parity, "
             "checkpoint resume parity, bounded memory",
    )
    replay.add_argument(
        "--scenario", choices=SCENARIOS + ("all",), default="all",
        help="registered scenario to replay, or 'all' (default: all)",
    )
    replay.add_argument(
        "--months", type=int, default=None,
        help="number of tick boundaries to replay (default: full span)",
    )
    replay.add_argument(
        "--shards", type=int, default=2,
        help="feed shards for the streaming side (default: 2; 1 also "
             "exercises file-based delta-chain checkpoints)",
    )
    replay.add_argument(
        "--workers", type=int, default=None,
        help="executor parallelism for shard ingest (default: serial)",
    )
    replay.add_argument(
        "--warm-span", type=int, default=None, metavar="DAYS",
        help="replay on tiered indexes: warm segment span in days "
             "(default: no retention)",
    )
    replay.add_argument(
        "--cold-age", type=int, default=None, metavar="DAYS",
        help="replay on tiered indexes: cold seal age horizon in days "
             "(default: no retention)",
    )
    replay.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="spill cold segments into a segment store at DIR during "
             "the replay (requires --warm-span/--cold-age)",
    )
    replay.add_argument(
        "--max-resident-cold", type=int, default=None, metavar="N",
        help="LRU bound on hydrated cold segments kept resident "
             "(default: 4; used with --spill-dir)",
    )
    replay.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: default --months 2 and skip the "
             "poisoning-defence audit",
    )
    replay.add_argument(
        "--metrics-out", default=None, metavar="BASE",
        help="write BASE.prom and BASE.json with the accumulated "
             "replay metrics (audit verdicts, stage latencies, feeds)",
    )
    replay.set_defaults(handler=_cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except (PSPError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
