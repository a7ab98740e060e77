"""Reusable benchmark kernels behind the ``BENCH_*.json`` harness.

Each ``run_*_bench`` function times a naive (seed-era) path against the
current engine on the fleet-scale acceptance workload, checks the two
paths produce identical results, and returns a
:class:`~repro.analysis.benchjson.BenchResult` ready to be written as
``BENCH_<name>.json``.  The kernels are shared by the pytest benches
under ``benchmarks/`` (which assert the speedup gates) and by the
standalone ``benchmarks/run_benches.py`` runner (which emits the JSON
trajectory in CI).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.benchjson import BenchResult
from repro.core.cache import CachedClient, TTLCache
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer, SAIList
from repro.core.timewindow import TimeWindow
from repro.iso21434.attack_path import threat_feasibility
from repro.iso21434.cal import determine_cal
from repro.iso21434.enums import CAL, AttackVector, FeasibilityRating
from repro.iso21434.feasibility.attack_vector import WeightTable, standard_table
from repro.iso21434.impact import ImpactProfile
from repro.iso21434.risk import RiskMatrix, default_matrix
from repro.iso21434.threats import ThreatScenario
from repro.iso21434.treatment import TreatmentPolicy
from repro.nlp.analysis import analyze_text
from repro.nlp.normalize import canonical_keyword, keyword_in_text
from repro.social.api import BatchQuery, InMemoryClient, SearchQuery
from repro.social.corpus import Corpus
from repro.social.index import CorpusIndex
from repro.social.post import Post
from repro.social.synthetic import AttackTopicSpec, generate_corpus
from repro.tara.model import (
    clear_compile_cache,
    compile_threat_model,
    enumerate_threats,
    identify_assets,
    rate_impact,
)
from repro.tara.scoring import (
    BatchTaraScorer,
    TableSpec,
    TaraRecord,
    TaraReportData,
)
from repro.vehicle.architecture import scaled_architecture
from repro.vehicle.attack_surface import AttackSurfaceAnalyzer
from repro.vehicle.network import VehicleNetwork

#: Fleet-scale acceptance workload: >= 50 keywords over the monitor's
#: growing-window cadence (5 overlapping windows, 4-8 years each).
N_KEYWORDS = 56
YEARS = tuple(range(2016, 2024))
WINDOW_LAST_YEARS = tuple(range(2019, 2024))

_VECTORS = (
    AttackVector.PHYSICAL,
    AttackVector.LOCAL,
    AttackVector.ADJACENT,
    AttackVector.NETWORK,
)


@dataclass(frozen=True)
class BenchWorkload:
    """One materialised benchmark workload."""

    corpus: Corpus
    database: KeywordDatabase
    windows: Tuple[TimeWindow, ...]

    @property
    def keywords(self) -> Tuple[str, ...]:
        """The database keywords, in insertion order."""
        return self.database.keywords

    def dimensions(self) -> Dict[str, int]:
        """The workload block of the BENCH json payload."""
        return {
            "keywords": len(self.database),
            "windows": len(self.windows),
            "posts": len(self.corpus),
        }


def fleet_workload_specs(
    n_keywords: int = N_KEYWORDS, years: Sequence[int] = YEARS
) -> Tuple[AttackTopicSpec, ...]:
    """Deterministic attack-topic specs for the fleet-scale workload."""
    return tuple(
        AttackTopicSpec(
            keyword=f"attacktopic{i:02d}",
            vector=_VECTORS[i % len(_VECTORS)],
            owner_approved=(i % 3 != 0),
            yearly_volume={year: 4 + (i + year) % 7 for year in years},
            engagement_scale=0.5 + (i % 5) * 0.3,
        )
        for i in range(n_keywords)
    )


def database_for_specs(specs: Sequence[AttackTopicSpec]) -> KeywordDatabase:
    """A keyword database covering every spec'd topic."""
    database = KeywordDatabase()
    for spec in specs:
        database.add(
            AttackKeyword(
                keyword=spec.keyword,
                vector=spec.vector,
                owner_approved=spec.owner_approved,
            )
        )
    return database


def fleet_workload(
    n_keywords: int = N_KEYWORDS,
    years: Sequence[int] = YEARS,
    *,
    seed: int = 21434,
) -> BenchWorkload:
    """The 56-keyword x 5-overlapping-window acceptance workload."""
    specs = fleet_workload_specs(n_keywords, years)
    windows = tuple(
        TimeWindow.years(years[0], last) for last in WINDOW_LAST_YEARS
    )
    return BenchWorkload(
        corpus=generate_corpus(specs, seed=seed),
        database=database_for_specs(specs),
        windows=windows,
    )


# -- indexed corpus engine vs the pre-index matching loop --------------------


def naive_matching_pass(
    corpus: Corpus,
    keywords: Sequence[str],
    windows: Sequence[TimeWindow],
) -> List[Dict[str, List[Post]]]:
    """The pre-index ``Corpus.matching`` loop, replicated faithfully.

    Per window: materialise the sub-corpus, build its lazy hashtag
    index, then scan linearly per keyword with the folded free-text
    matcher (:func:`~repro.nlp.normalize.keyword_in_text`) on every
    untagged post — O(keywords x posts x windows) repeated string work.
    """
    results: List[Dict[str, List[Post]]] = []
    for window in windows:
        scope = corpus.in_window(since=window.since, until=window.until)
        posts = list(scope)
        hashtag_index: Dict[str, List[Post]] = {}
        for post in posts:
            for tag in set(post.hashtags):
                hashtag_index.setdefault(tag, []).append(post)
        per_keyword: Dict[str, List[Post]] = {}
        for keyword in keywords:
            canonical = canonical_keyword(keyword)
            matched = list(hashtag_index.get(canonical, ()))
            tagged_ids = {p.post_id for p in matched}
            for post in posts:
                if post.post_id in tagged_ids:
                    continue
                if keyword_in_text(keyword, post.text):
                    matched.append(post)
            matched.sort(key=lambda p: (p.created_at, p.post_id))
            per_keyword[keyword] = matched
        results.append(per_keyword)
    return results


def indexed_matching_pass(
    corpus: Corpus,
    keywords: Sequence[str],
    windows: Sequence[TimeWindow],
) -> List[Dict[str, List[Post]]]:
    """The indexed engine: one batch sweep per bisected window."""
    return [
        corpus.search_many(keywords, since=window.since, until=window.until)
        for window in windows
    ]


def _matching_results_equal(
    left: Sequence[Dict[str, List[Post]]],
    right: Sequence[Dict[str, List[Post]]],
) -> bool:
    if len(left) != len(right):
        return False
    for per_left, per_right in zip(left, right):
        if set(per_left) != set(per_right):
            return False
        for keyword in per_left:
            ids_left = [p.post_id for p in per_left[keyword]]
            ids_right = [p.post_id for p in per_right[keyword]]
            if ids_left != ids_right:
                return False
    return True


def run_indexed_corpus_bench(
    workload: Optional[BenchWorkload] = None,
) -> BenchResult:
    """Time the pre-index matching loop against the indexed engine.

    The shared text-analysis cache is cleared before each side so both
    pay their full cold cost — the engine's timing includes building the
    columnar index from scratch.
    """
    load = workload or fleet_workload()
    keywords = load.keywords

    analyze_text.cache_clear()
    start = time.perf_counter()
    naive = naive_matching_pass(load.corpus, keywords, load.windows)
    naive_s = time.perf_counter() - start

    engine_corpus = Corpus(load.corpus.posts)
    analyze_text.cache_clear()
    start = time.perf_counter()
    indexed = indexed_matching_pass(engine_corpus, keywords, load.windows)
    engine_s = time.perf_counter() - start

    return BenchResult(
        name="indexed_corpus",
        workload=load.dimensions(),
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=_matching_results_equal(naive, indexed),
        extra={
            "matches_per_window": [
                sum(len(posts) for posts in per_keyword.values())
                for per_keyword in indexed
            ],
        },
    )


# -- batched+cached engine vs the per-keyword query path ---------------------


def sequential_sai_pass(
    client: InMemoryClient,
    database: KeywordDatabase,
    windows: Sequence[TimeWindow],
    *,
    region: str = "europe",
) -> List[SAIList]:
    """The seed path: one synchronous search per keyword per window."""
    computer = SAIComputer(client)
    results = []
    for window in windows:
        posts = {
            entry.keyword: client.search(
                SearchQuery(
                    keyword=entry.keyword,
                    since=window.since,
                    until=window.until,
                    region=region,
                )
            )
            for entry in database
        }
        results.append(computer.compute_from_posts(database, posts))
    return results


def batched_cached_sai_pass(
    client,
    database: KeywordDatabase,
    windows: Sequence[TimeWindow],
    *,
    region: str = "europe",
    prewarm: bool = True,
) -> List[SAIList]:
    """The engine path: one batched query per window over a cached client.

    A monitoring sequence knows its windows up front, so the engine
    first pre-warms the cached client's (keyword × year) cell grid
    for the union year span (one batched platform pass per year) —
    every window query afterwards is answered entirely from cache
    instead of missing on each window's newest year.
    """
    computer = SAIComputer(client)
    if prewarm and isinstance(client, CachedClient):
        bounded = [
            window
            for window in windows
            if window.since is not None and window.until is not None
        ]
        if bounded:
            client.prewarm_segments(
                database.keywords,
                min(window.since.year for window in bounded),
                max(window.until.year for window in bounded),
                region=region,
            )
    return [
        computer.compute(
            database, region=region, since=window.since, until=window.until
        )
        for window in windows
    ]


def run_batch_engine_bench(
    workload: Optional[BenchWorkload] = None,
) -> BenchResult:
    """Time the per-keyword query path against the batched+cached engine."""
    load = workload or fleet_workload()

    plain = InMemoryClient(Corpus(load.corpus.posts))
    start = time.perf_counter()
    sequential = sequential_sai_pass(plain, load.database, load.windows)
    naive_s = time.perf_counter() - start

    cached = CachedClient(
        InMemoryClient(Corpus(load.corpus.posts)), cache=TTLCache()
    )
    start = time.perf_counter()
    batched = batched_cached_sai_pass(cached, load.database, load.windows)
    engine_s = time.perf_counter() - start

    equivalent = all(
        left.as_rows() == right.as_rows()
        for left, right in zip(sequential, batched)
    ) and len(sequential) == len(batched)

    return BenchResult(
        name="batch_engine",
        workload=load.dimensions(),
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=equivalent,
        extra={"query_cache": cached.stats.as_dict()},
    )


# -- memoized sentiment vs re-scoring every window ---------------------------


def run_sentiment_memo_bench(
    workload: Optional[BenchWorkload] = None,
) -> BenchResult:
    """Time SAI re-evaluation with a cold vs warm sentiment memo.

    Models the ablation-sweep / fleet shape: the same fetched posts are
    scored repeatedly.  The naive figure clears the shared analysis
    cache before every evaluation (the seed behaviour: every pass
    re-tokenizes and re-scores); the engine figure pays the analysis
    once and reuses the per-fingerprint memo on later passes.
    """
    load = workload or fleet_workload()
    client = InMemoryClient(load.corpus)
    computer = SAIComputer(client)
    rounds = 5

    posts_by_keyword = client.search_many(
        BatchQuery(keywords=load.keywords)
    ).posts_by_keyword

    start = time.perf_counter()
    naive_lists = []
    for _ in range(rounds):
        analyze_text.cache_clear()
        naive_lists.append(
            computer.compute_from_posts(load.database, posts_by_keyword)
        )
    naive_s = time.perf_counter() - start

    analyze_text.cache_clear()
    start = time.perf_counter()
    warm_lists = [
        computer.compute_from_posts(load.database, posts_by_keyword)
        for _ in range(rounds)
    ]
    engine_s = time.perf_counter() - start

    equivalent = all(
        left.as_rows() == right.as_rows()
        for left, right in zip(naive_lists, warm_lists)
    )
    return BenchResult(
        name="sentiment_memo",
        workload={**load.dimensions(), "rounds": rounds},
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=equivalent,
        extra={},
    )


# -- compiled-model batch TARA vs N+1 monolith engine runs -------------------


def legacy_tara_run(
    network: VehicleNetwork,
    *,
    table: Optional[WeightTable] = None,
    insider_table: Optional[WeightTable] = None,
    risk_matrix: Optional[RiskMatrix] = None,
    policy: Optional[TreatmentPolicy] = None,
    impact_overrides: Optional[Dict[str, ImpactProfile]] = None,
    extra_threats: Sequence[ThreatScenario] = (),
) -> TaraReportData:
    """The seed-era TARA monolith, replicated faithfully.

    Re-derives assets, STRIDE threats and impact per run, and — the
    expensive part — re-enumerates attack paths through the
    :class:`~repro.vehicle.attack_surface.AttackSurfaceAnalyzer` for
    **every threat**, exactly as the pre-split ``TaraEngine.run`` did.
    This is the naive reference the batch scorer must match
    record-for-record (property-tested in
    ``tests/properties/test_tara_batch_equivalence.py``).
    """
    outsider = table if table is not None else standard_table()
    insider = insider_table if insider_table is not None else outsider
    matrix = risk_matrix if risk_matrix is not None else default_matrix()
    treatment_policy = policy or TreatmentPolicy()
    overrides = dict(impact_overrides or {})
    analyzer = AttackSurfaceAnalyzer(network, table=outsider)
    insider_analyzer = AttackSurfaceAnalyzer(network, table=insider)

    assets = identify_assets(network)
    threats = list(enumerate_threats(network, assets))
    threats.extend(extra_threats)

    records = []
    for threat in threats:
        impact = rate_impact(network, threat, overrides)
        active_table = insider if threat.is_owner_approved else outsider
        active_analyzer = (
            insider_analyzer if threat.is_owner_approved else analyzer
        )
        ecu_id = threat.asset_id.split(".")[0]
        all_paths = active_analyzer.paths_to(ecu_id, threat_id=threat.threat_id)
        paths = [
            p for p in all_paths if p.entry_vector in threat.attack_vectors
        ]
        aggregated = threat_feasibility(paths)
        if aggregated is None:
            best_vector = max(
                threat.attack_vectors,
                key=lambda v: (active_table.rating(v).level, v.reach),
            )
            feasibility = active_table.rating(best_vector)
            entry_vector: Optional[AttackVector] = best_vector
        else:
            feasibility = aggregated
            best_path = max(
                paths, key=lambda p: (p.feasibility.level, -p.length)
            )
            entry_vector = best_path.entry_vector
        risk = matrix.risk_value(impact.overall, feasibility)
        cal = (
            determine_cal(impact.overall, entry_vector)
            if entry_vector is not None
            else CAL.NONE
        )
        records.append(
            TaraRecord(
                threat=threat,
                impact=impact,
                feasibility=feasibility,
                entry_vector=entry_vector,
                risk_value=risk,
                cal=cal,
                treatment=treatment_policy.decide(risk, impact),
                paths=tuple(paths),
            )
        )
    return TaraReportData(table_source=outsider.source, records=tuple(records))


#: Fleet-rescoring acceptance workload: 10 tuned members + 1 baseline.
N_FLEET_TABLES = 10


def fleet_insider_tables(n: int = N_FLEET_TABLES) -> Tuple[WeightTable, ...]:
    """``n`` deterministic, pairwise-distinct insider weight tables.

    Member ``i``'s rating at vector position ``p`` is the ``p``-th
    base-4 digit of ``i`` shifted by ``p`` — distinct ``i`` give
    distinct digit vectors, so every member has a distinct table
    fingerprint and none resolves for free from another's scorer memo.
    """
    if not 1 <= n <= 256:
        raise ValueError(f"n must be in 1..256 for distinct tables, got {n}")
    vectors = (
        AttackVector.NETWORK,
        AttackVector.ADJACENT,
        AttackVector.LOCAL,
        AttackVector.PHYSICAL,
    )
    tables = []
    for i in range(n):
        ratings = {
            vector: FeasibilityRating.from_level(((i >> (2 * position)) + position) % 4)
            for position, vector in enumerate(vectors)
        }
        tables.append(
            WeightTable(ratings, source="psp", note=f"fleet member {i}")
        )
    return tuple(tables)


def tara_fleet_network(domains: int = 6, ecus_per_domain: int = 8) -> VehicleNetwork:
    """The synthetic architecture the TARA fleet workload scores."""
    return scaled_architecture(domains=domains, ecus_per_domain=ecus_per_domain)


def naive_fleet_tara_pass(
    network: VehicleNetwork, tables: Sequence[WeightTable]
) -> List[TaraReportData]:
    """The seed fleet path: one full monolith run per table, plus baseline."""
    reports = [legacy_tara_run(network)]
    reports.extend(
        legacy_tara_run(network, insider_table=table) for table in tables
    )
    return reports


def batch_fleet_tara_pass(
    network: VehicleNetwork, tables: Sequence[WeightTable]
) -> List[TaraReportData]:
    """The engine path: compile once, score the whole fleet in one sweep."""
    scorer = BatchTaraScorer(compile_threat_model(network))
    specs = [TableSpec(label="__static__")]
    specs.extend(
        TableSpec(label=f"member:{i}", insider_table=table)
        for i, table in enumerate(tables)
    )
    return list(scorer.score_many(specs).values())


def _tara_reports_equal(
    left: Sequence[TaraReportData], right: Sequence[TaraReportData]
) -> bool:
    if len(left) != len(right):
        return False
    return all(
        a.table_source == b.table_source and a.records == b.records
        for a, b in zip(left, right)
    )


def run_tara_batch_bench(
    network: Optional[VehicleNetwork] = None,
    tables: Optional[Sequence[WeightTable]] = None,
) -> BenchResult:
    """Time N+1 monolith TARA runs against the compiled batch scorer.

    The compile cache is cleared before the engine side so its timing
    includes building the compiled model from scratch — the measured
    win is compile-once-score-many, not a warm cache.
    """
    net = network if network is not None else tara_fleet_network()
    fleet_tables = tuple(tables) if tables is not None else fleet_insider_tables()

    start = time.perf_counter()
    naive = naive_fleet_tara_pass(net, fleet_tables)
    naive_s = time.perf_counter() - start

    clear_compile_cache()
    start = time.perf_counter()
    batched = batch_fleet_tara_pass(net, fleet_tables)
    engine_s = time.perf_counter() - start

    return BenchResult(
        name="tara_batch",
        workload={
            "ecus": len(net.ecus),
            "threats": len(naive[0].records),
            "tables": len(fleet_tables) + 1,
        },
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=_tara_reports_equal(naive, batched),
        extra={
            "paths": compile_threat_model(net).path_count,
            "reports": len(batched),
        },
    )


# -- streaming tick vs full rebuild + full pipeline re-run -------------------


def rebuild_and_rerun_pass(
    posts: Sequence[Post],
    database: KeywordDatabase,
    target,
    window: TimeWindow,
):
    """The batch path a naive "new posts arrived" reaction pays.

    Rebuild the corpus and its keyword index from scratch over the full
    union, then re-run the whole query→sai→split→tune pipeline — exactly
    what the pre-stream :class:`~repro.core.monitor.PSPMonitor` did per
    tick.  Returns ``(sai, insider_table)``.
    """
    from repro.core.config import PSPConfig
    from repro.core.pipeline import PipelineContext, PSPPipeline

    corpus = Corpus(posts)
    client = InMemoryClient(corpus)
    context = PipelineContext(
        client=client,
        target=target,
        database=database,
        config=PSPConfig(),
        window=window,
    )
    PSPPipeline.default(learn=False).run(context)
    return context.sai, context.tuning.insider_table


def run_stream_bench(
    workload: Optional[BenchWorkload] = None,
    *,
    tick_posts: int = 150,
) -> BenchResult:
    """Time one streaming tick against full rebuild + pipeline re-run.

    Both sides react to the same event: ``tick_posts`` new posts arrive
    on top of an already-analysed corpus.  The naive side rebuilds the
    corpus + index from scratch and re-runs the full batch pipeline
    (the pre-stream monitor's grow-window behaviour).  The engine side
    feeds the micro-batch through a warm
    :class:`~repro.stream.runtime.StreamRuntime` tick — index append,
    dirty-keyword SAI update, conditional retune.  Equivalence checks
    that the streamed index answers every keyword post-for-post like a
    from-scratch rebuild and that the streamed insider table/SAI match
    the batch pipeline's.
    """
    from repro.core.config import TargetApplication
    from repro.stream.feed import SyntheticFeed
    from repro.stream.runtime import StreamRuntime

    # A deeper history than the batch workloads: the rebuild cost the
    # tick avoids grows with the corpus, the tick itself does not.
    load = workload or fleet_workload(years=tuple(range(2012, 2024)))
    posts = sorted(
        load.corpus.posts, key=lambda p: (p.created_at, p.post_id)
    )
    if not 0 < tick_posts < len(posts):
        raise ValueError(f"tick_posts must be in 1..{len(posts) - 1}")
    head, tail = posts[:-tick_posts], posts[-tick_posts:]
    target = TargetApplication("fleet_member", "europe", "fleet")
    window = TimeWindow.full_history()

    from repro.obs.registry import MetricsRegistry

    # Warm-up (untimed): the runtime has ingested the historical head.
    # The runtime is fully instrumented so the bench record carries a
    # telemetry snapshot (stage latencies included) next to peak_rss_kb.
    feed = SyntheticFeed(posts)
    metrics = MetricsRegistry()
    runtime = StreamRuntime(
        feed, load.database, target=target, metrics=metrics
    )
    runtime.ingest(feed.events_after(-1, limit=len(head)))

    start = time.perf_counter()
    tick = runtime.ingest(feed.events_after(runtime.cursor))
    engine_s = time.perf_counter() - start

    start = time.perf_counter()
    naive_sai, naive_table = rebuild_and_rerun_pass(
        posts, load.database, target, window
    )
    naive_s = time.perf_counter() - start

    streamed_result = runtime.current_result
    tables_equal = (
        tick.retuned
        and streamed_result is not None
        and streamed_result.insider_table.as_rows() == naive_table.as_rows()
    )
    sai_equal = (
        streamed_result is not None
        and streamed_result.sai.as_rows() == naive_sai.as_rows()
    )
    rebuilt_index = CorpusIndex(posts)
    streamed = runtime.index.search_many(load.keywords)
    rebuilt = rebuilt_index.search_many(load.keywords)
    index_equal = all(
        [p.post_id for p in streamed[k]] == [p.post_id for p in rebuilt[k]]
        for k in load.keywords
    )

    return BenchResult(
        name="stream",
        workload={**load.dimensions(), "tick_posts": tick_posts},
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=tables_equal and sai_equal and index_equal,
        extra={
            "dirty_keywords": len(tick.dirty),
            "retuned": tick.retuned,
            "segments": runtime.index.segment_stats,
            "stats": runtime.runtime_health()["counters"],
            "metrics": metrics.snapshot(),
        },
    )


# -- sharded merged tick vs sequential per-feed single-runtime ticks ---------

#: Shard-bench acceptance workload: 4 feeds, quarterly arrival rounds.
N_SHARDS = 4
SHARD_ROUNDS = 4


def run_shard_bench(
    workload: Optional[BenchWorkload] = None,
    *,
    shards: int = N_SHARDS,
    rounds: int = SHARD_ROUNDS,
) -> BenchResult:
    """Time N-feed arrival rounds: merged sharded ticks vs per-feed ticks.

    The continuous multi-feed workload: ``shards`` region/platform feeds
    each deliver a micro-batch per arrival round on top of an
    already-analysed history.  The pre-sharding reaction consumes the
    arrivals through one :class:`~repro.stream.runtime.StreamRuntime`,
    one tick *per shard batch* — every batch pays its own dirty-SAI
    probe pass plus a full conditional retune (and TARA rescore when the
    table shifts).  The sharded runtime ingests the same batches as one
    merged tick per round: per-shard arena-sweep delta jobs (parallel
    across shards on multi-core hosts), a pure-sum merge, and **one**
    shared evaluation per round regardless of shard count.

    Equivalence is checked at matching evaluation points: a fresh
    single-feed run and a fresh sharded run advanced year by year over
    the whole feed must emit identical alerts (years, rating changes,
    TARA records) and finish on identical insider tables and SAI rows.

    ``extra.scaling_fixed_shard_volume`` records the merged-tick cost at
    1/2/4/8 shards with per-shard volume held constant — the flatness
    claim sharding makes as feeds are added (on multi-core hardware the
    executor additionally spreads the per-shard jobs; this box's CPU
    count is recorded alongside).
    """
    import datetime as dt

    from repro.core.config import TargetApplication
    from repro.core.executor import available_cpus, resolve_executor
    from repro.stream.feed import SyntheticFeed
    from repro.stream.runtime import StreamRuntime
    from repro.stream.sharding import (
        ShardedStreamRuntime,
        partition_posts,
        shard_feeds,
    )
    from repro.vehicle import reference_architecture

    if rounds < 1 or 12 % rounds != 0:
        raise ValueError(
            f"rounds must divide the 12 bench months evenly, got {rounds}"
        )
    load = workload or fleet_workload(years=tuple(range(2012, 2024)))
    posts = sorted(load.corpus.posts, key=lambda p: (p.created_at, p.post_id))
    target = TargetApplication("fleet_member", "europe", "fleet")
    network = reference_architecture()
    last_year = max(p.created_at.year for p in posts)

    # Arrival rounds: the last year's traffic lands in `rounds` equal
    # date slices; each round every shard contributes its micro-batch.
    month_step = 12 // rounds
    round_ends = [
        dt.date(last_year, month, _month_end(last_year, month))
        for month in range(month_step, 13, month_step)
    ]

    # -- naive side: one single runtime, one tick per shard batch ------------
    analyze_text.cache_clear()
    single_feed = SyntheticFeed(posts)
    single = StreamRuntime(
        single_feed, load.database, target=target, network=network
    )
    single.advance_to(dt.date(last_year - 1, 12, 31))
    tail_events = single_feed.events_after(single.cursor)
    shard_of = {
        post.post_id: index
        for index, partition in enumerate(partition_posts(posts, shards))
        for post in partition
    }
    naive_batches = []
    previous = dt.date(last_year - 1, 12, 31)
    for round_end in round_ends:
        for shard in range(shards):
            batch = tuple(
                event
                for event in tail_events
                if previous < event.created_at <= round_end
                and shard_of[event.post.post_id] == shard
            )
            if batch:
                naive_batches.append(batch)
        previous = round_end
    for event in tail_events:  # warm text analyses off the clock
        analyze_text(event.post.text)
    start = time.perf_counter()
    for batch in naive_batches:
        single.ingest(batch)
    naive_s = time.perf_counter() - start
    naive_evaluations = len(naive_batches)

    # -- engine side: one sharded runtime, one merged tick per round ---------
    # Threads, not processes, for the timed side: process workers would
    # re-run the text analyses the naive side has warm in-process (cold
    # pickling + analysis inside the timed region), making the gate
    # hardware-dependent.  Threads share the warm memo, so the measured
    # win is the structural one — arena sweeps plus one evaluation per
    # round — on any box; process-pool wall-clock scaling is a
    # deployment choice on top (extra.executor records what ran).
    analyze_text.cache_clear()
    sharded = ShardedStreamRuntime(
        shard_feeds(posts, shards),
        load.database,
        target=target,
        network=network,
        executor=resolve_executor(shards, prefer="thread"),
    )
    sharded.advance_to(dt.date(last_year - 1, 12, 31))
    for event in tail_events:
        analyze_text(event.post.text)
    start = time.perf_counter()
    for round_end in round_ends:
        sharded.advance_to(round_end)
    engine_s = time.perf_counter() - start
    sharded.close()

    # -- equivalence: year-by-year parity with the single-feed run -----------
    equivalent = _sharded_run_equivalent(posts, load, target, network, shards)

    # -- scaling: merged tick cost at fixed per-shard volume -----------------
    scaling = _shard_scaling_curve(load, posts, target, network)

    return BenchResult(
        name="shard",
        workload={
            **load.dimensions(),
            "shards": shards,
            "rounds": len(round_ends),
            "tick_posts": len(tail_events),
        },
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=equivalent,
        extra={
            "cpus": available_cpus(),
            "executor": sharded.executor.kind,
            "naive_evaluations": naive_evaluations,
            "engine_evaluations": len(round_ends),
            "scaling_fixed_shard_volume": scaling,
        },
    )


def _month_end(year: int, month: int) -> int:
    """The last day of one month."""
    import calendar

    return calendar.monthrange(year, month)[1]


def _sharded_run_equivalent(posts, load, target, network, shards) -> bool:
    """Year-by-year alert/table/TARA/SAI parity, sharded vs single feed."""
    import datetime as dt

    from repro.stream.feed import SyntheticFeed
    from repro.stream.runtime import StreamRuntime
    from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

    years = sorted({p.created_at.year for p in posts})
    single = StreamRuntime(
        SyntheticFeed(posts), load.database, target=target, network=network
    )
    sharded = ShardedStreamRuntime(
        shard_feeds(posts, shards), load.database, target=target, network=network
    )
    for year in years:
        single.advance_to(dt.date(year, 12, 31), upto_year=year)
        sharded.advance_to(dt.date(year, 12, 31), upto_year=year)
    alerts_equal = [
        (alert.upto_year, alert.changes) for alert in single.alerts
    ] == [(alert.upto_year, alert.changes) for alert in sharded.alerts]
    taras_equal = all(
        (a.tara is None) == (b.tara is None)
        and (a.tara is None or a.tara.records == b.tara.records)
        for a, b in zip(single.alerts, sharded.alerts)
    )
    tables_equal = (
        single.current_table is not None
        and sharded.current_table is not None
        and single.current_table.as_rows() == sharded.current_table.as_rows()
    )
    sai_equal = (
        single.current_result.sai.as_rows()
        == sharded.current_result.sai.as_rows()
    )
    return alerts_equal and taras_equal and tables_equal and sai_equal


#: Per-shard micro-batch size of the scaling measurement.
_SCALING_SHARD_POSTS = 24


def _shard_scaling_curve(load, posts, target, network):
    """Merged-tick seconds at 1/2/4/8 shards, fixed per-shard volume."""
    import datetime as dt

    from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

    last_year = max(p.created_at.year for p in posts)
    head = [p for p in posts if p.created_at.year < last_year]
    tail = [p for p in posts if p.created_at.year == last_year]
    curve = {}
    for shards in (1, 2, 4, 8):
        volume = min(shards * _SCALING_SHARD_POSTS, len(tail))
        subset = head + tail[:volume]
        runtime = ShardedStreamRuntime(
            shard_feeds(subset, shards),
            load.database,
            target=target,
            network=network,
        )
        runtime.advance_to(dt.date(last_year - 1, 12, 31))
        start = time.perf_counter()
        runtime.advance_to(dt.date(last_year, 12, 31))
        curve[str(shards)] = round(time.perf_counter() - start, 4)
        runtime.close()
    return curve


# -- columnar arena ingest vs per-object delta-segment append ----------------

#: S9 workload profiles: engine-side ingest volume, the naive-side
#: measured sample, and the append micro-batch size.  ``full`` is the
#: acceptance workload (a 1M+-post synthetic stream); ``smoke`` is the
#: CI profile — same kernels, same equivalence and RSS checks, a
#: fraction of the wall time.
S9_PROFILES: Dict[str, Dict[str, int]] = {
    "full": {
        "engine_posts": 1_048_576,
        "naive_posts": 131_072,
        "batch_posts": 1024,
    },
    "smoke": {
        "engine_posts": 131_072,
        "naive_posts": 32_768,
        "batch_posts": 1024,
    },
}

#: Engine-phase peak-RSS budget (KB) per profile.  The full profile
#: holds 1M+ posts of columns, arena and id set; the budget
#: gives roughly 2x headroom over the observed footprint so allocator
#: and platform variance does not flake the gate.
S9_RSS_BUDGET_KB: Dict[str, int] = {
    "full": 2_400_000,
    "smoke": 800_000,
}

#: Distinct post texts in the synthetic stream.  Deliberately below the
#: ``analyze_text`` memo capacity (32768) so the *naive* side re-serves
#: warm analyses during its compaction rebuilds — the measured win is
#: then the structural one (array concatenation vs O(corpus) per-object
#: re-index), not memo thrash the legacy path would additionally pay at
#: real scale.
_S9_DISTINCT_TEXTS = 24_576

_S9_TOPICS = (
    "dpf delete kit for the fleet",
    "egr removal remap no fault codes",
    "adblue off emulator install",
    "stage2 chip tuning session",
    "routine telematics mileage log",
    "dealer service inspection note",
)
_S9_TAGS = ("#dpfdelete", "#egroff", "#stage2", "#fleetops")
_S9_REGIONS = ("europe", "america", "asia")
_S9_START_ORDINAL = 737060  # 2019-01-01
_S9_POSTS_PER_DAY = 2048

_S9_KEYWORDS = (
    "dpf delete",
    "#dpfdelete",
    "egr removal",
    "stage2",
    "adblue off",
    "emulator",
    "unit00042",
    "nomatchzz",
)


def _s9_text_pool(distinct_texts: int) -> List[str]:
    """Deterministic pool of distinct post texts (keyword-bearing)."""
    topics, tags = _S9_TOPICS, _S9_TAGS
    return [
        f"{topics[i % len(topics)]} unit{i:05d} {tags[i % len(tags)]}"
        for i in range(distinct_texts)
    ]


def _s9_batches(
    n_posts: int,
    batch_posts: int,
    pool: Sequence[str],
    *,
    posts_per_day: int = _S9_POSTS_PER_DAY,
):
    """A deterministic date-ordered synthetic stream, yielded batch-wise.

    Arithmetic only — no RNG — so both bench sides and every rerun see
    the identical stream.  Yielding batches keeps at most one batch of
    ``Post`` objects alive outside the index under test, so the peak-RSS
    sample reflects the index, not the generator.
    """
    import datetime as dt

    from repro.social.post import Engagement

    regions = _S9_REGIONS
    n_pool = len(pool)
    for start in range(0, n_posts, batch_posts):
        batch = []
        for i in range(start, min(start + batch_posts, n_posts)):
            batch.append(
                Post(
                    post_id=f"s9{i:08d}",
                    text=pool[i % n_pool],
                    author=f"user{i % 311}",
                    created_at=dt.date.fromordinal(
                        _S9_START_ORDINAL + i // posts_per_day
                    ),
                    region=regions[i % 3],
                    engagement=Engagement(
                        views=(i * 7) % 4096,
                        likes=(i * 3) % 512,
                        reposts=i % 65,
                        replies=i % 23,
                    ),
                )
            )
        yield batch


def _s9_timed_ingest(index, n_posts, batch_posts, pool) -> float:
    """Seconds spent inside ``index.append`` (generation untimed)."""
    elapsed = 0.0
    for batch in _s9_batches(n_posts, batch_posts, pool):
        start = time.perf_counter()
        index.append(batch)
        elapsed += time.perf_counter() - start
    return elapsed


#: Equivalence-check sample: small enough to be untimed noise, large
#: enough for >= 2 compactions on both sides at the check threshold.
_S9_EQUIVALENCE_POSTS = 3000


def _s9_equivalent(pool) -> bool:
    """Columnar vs legacy parity on an out-of-order streamed sample.

    Both indexes ingest the same strided (strongly out-of-order)
    arrival in uneven chunks across multiple compactions, then must
    agree post-for-post on windowed batch searches and on the global
    post order.
    """
    import datetime as dt

    from repro.analysis._legacy_index import LegacyStreamingCorpusIndex
    from repro.stream.tiers import TieredCorpusIndex

    posts = [
        post
        for batch in _s9_batches(
            _S9_EQUIVALENCE_POSTS, 500, pool, posts_per_day=97
        )
        for post in batch
    ]
    arrival = posts[0::3] + posts[1::3] + posts[2::3]
    engine = TieredCorpusIndex(compact_threshold=700)
    legacy = LegacyStreamingCorpusIndex(compact_threshold=700)
    for start in range(0, len(arrival), 257):
        chunk = arrival[start : start + 257]
        engine.append(chunk)
        legacy.append(chunk)
    windows = (
        (None, None),
        (dt.date(2019, 1, 5), dt.date(2019, 1, 20)),
        (dt.date(2019, 1, 25), None),
    )
    for since, until in windows:
        got = engine.search_many(_S9_KEYWORDS, since=since, until=until)
        want = legacy.search_many(_S9_KEYWORDS, since=since, until=until)
        for keyword in _S9_KEYWORDS:
            if [p.post_id for p in got[keyword]] != [
                p.post_id for p in want[keyword]
            ]:
                return False
    return [p.post_id for p in engine.posts] == [
        p.post_id for p in legacy.posts
    ]


def run_columnar_bench(profile: str = "full") -> BenchResult:
    """Time columnar arena ingest against the per-object append path.

    Both sides consume the identical deterministic synthetic stream in
    date-ordered micro-batches; only the time inside ``append`` is on
    the clock.  The engine side is the stream index
    (:class:`~repro.stream.tiers.TieredCorpusIndex`) without retention,
    under a geometric seal policy (ratio 0.5, no fixed threshold), so
    its total seal and consolidation work is O(posts) array
    concatenation.  The naive side is
    the frozen pre-columnar replica
    (:mod:`repro.analysis._legacy_index`) under its original default
    policy — a fixed 1024-post threshold whose every compaction rebuilds
    per-post objects and dict postings over the whole corpus, O(N^2 /
    threshold) overall.

    The naive side is therefore measured on a smaller sample and scaled
    to the engine volume at its *measured per-post rate* — a linear
    extrapolation that understates the legacy path's true superlinear
    cost, so the reported speedup is a floor.  ``speedup`` is exactly
    the ingest-throughput ratio (posts/second, engine over naive).

    The engine ingests first so the engine-phase ``ru_maxrss`` sample is
    an upper bound on the columnar footprint (the counter is a
    process-lifetime maximum); the budget verdict lands in
    ``extra.rss_within_budget``.  Equivalence is checked untimed on an
    out-of-order streamed sample spanning multiple compactions.
    """
    from repro.analysis._legacy_index import (
        LEGACY_COMPACT_THRESHOLD,
        LegacyStreamingCorpusIndex,
    )
    from repro.analysis.benchjson import peak_rss_kb
    from repro.stream.tiers import TieredCorpusIndex

    if profile not in S9_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(S9_PROFILES)}, got {profile!r}"
        )
    dims = S9_PROFILES[profile]
    engine_posts = dims["engine_posts"]
    naive_posts = dims["naive_posts"]
    batch_posts = dims["batch_posts"]
    pool = _s9_text_pool(_S9_DISTINCT_TEXTS)

    engine = TieredCorpusIndex(compact_threshold=1 << 30, compact_ratio=0.5)
    engine_s = _s9_timed_ingest(engine, engine_posts, batch_posts, pool)
    engine_rss = peak_rss_kb()
    engine_segments = engine.segment_stats

    # The engine phase left the analyze_text memo warm for the shared
    # text pool, so the naive side starts with every analysis served
    # from cache — another conservative tilt in its favour.
    naive = LegacyStreamingCorpusIndex()
    naive_measured_s = _s9_timed_ingest(naive, naive_posts, batch_posts, pool)
    naive_segments = naive.segment_stats

    scale = engine_posts / naive_posts
    naive_s = naive_measured_s * scale

    budget_kb = S9_RSS_BUDGET_KB[profile]
    return BenchResult(
        name="columnar",
        workload={
            "posts": engine_posts,
            "naive_posts": naive_posts,
            "batch_posts": batch_posts,
            "distinct_texts": len(pool),
            "profile": profile,
        },
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=_s9_equivalent(pool),
        extra={
            "profile": profile,
            "naive_measured_seconds": round(naive_measured_s, 4),
            "naive_extrapolation": (
                "linear per-post rate from the measured sample; the legacy "
                f"path compacts every {LEGACY_COMPACT_THRESHOLD} posts with "
                "a full O(corpus) per-object rebuild, so its true cost at "
                "the engine volume is superlinear and this figure "
                "understates it"
            ),
            "engine_posts_per_second": (
                round(engine_posts / engine_s) if engine_s > 0 else None
            ),
            "naive_posts_per_second": (
                round(naive_posts / naive_measured_s)
                if naive_measured_s > 0
                else None
            ),
            "peak_rss_kb_engine_phase": engine_rss,
            "peak_rss_budget_kb": budget_kb,
            "rss_within_budget": (
                engine_rss is not None and engine_rss <= budget_kb
            ),
            "engine_segments": engine_segments,
            "naive_segments": naive_segments,
        },
    )


# -- tiered retention vs no retention -----------------------------------------

#: S10 workload profiles: a multi-year sharded stream replayed twice —
#: once with retention knobs (hot/warm/cold tiers), once without (the
#: "flat" phase: every post stays warm) — comparing *steady-state tick
#: latency* and peak RSS.  ``full`` is the acceptance workload (5
#: years); ``smoke`` is the CI profile — same kernels, same equivalence
#: checks, a fraction of the wall time.  The flat side's extra cost is
#: its whole-history consolidations, so the smoke stream must be long
#: enough for them to stand out from tick noise: at 2 years × 96
#: posts/day (~35k posts per shard) one is a cheap array concat and the
#: ratio sat near 1×; 5 years × 256 posts/day (~234k per shard) reads
#: ~2–3×.
S10_PROFILES: Dict[str, Dict[str, int]] = {
    "full": {
        "years": 5,
        "posts_per_day": 1024,
        "batch_posts": 256,
        "shards": 2,
        "distinct_texts": 262_144,
        "warm_span_days": 90,
        "cold_age_days": 365,
        "replay_months": 6,
    },
    "smoke": {
        "years": 5,
        "posts_per_day": 256,
        "batch_posts": 128,
        "shards": 2,
        "distinct_texts": 12_288,
        "warm_span_days": 60,
        "cold_age_days": 180,
        "replay_months": 2,
    },
}

#: Peak-RSS ratio budget (tiered phase over flat phase) per profile.
#: The counter is the process-lifetime ``ru_maxrss`` maximum and the
#: tiered phase runs first, so the ratio is exact for the tiered side
#: and conservative for the flat side (if the flat phase never exceeds
#: the tiered peak the ratio reads 1.0 and the gate fails loudly).
#: The smoke stream is too short for cold tiers to dominate the
#: footprint, so its budget is looser than the acceptance 0.5x.
S10_RSS_RATIO_BUDGET: Dict[str, float] = {
    "full": 0.5,
    "smoke": 0.9,
}

#: One in eight topics bears an attack keyword: the per-tick delta
#: compute (arena sweep + sentiment for matches) is then a minority
#: cost shared by both sides, and the measured ratio isolates the
#: structural difference — bounded per-span tier maintenance vs
#: O(corpus) consolidations that grow with stream age.
_S10_TOPICS = (
    "dpf delete kit fitted for the fleet",
    "routine telematics mileage log",
    "dealer service inspection note",
    "depot fuel consumption summary",
    "tyre rotation schedule reminder",
    "driver shift handover checklist",
    "winter coolant level audit",
    "trailer brake wear measurement",
)

_S10_KEYWORDS = ("dpf delete", "egr removal", "adblue off")


def _s10_database() -> KeywordDatabase:
    database = KeywordDatabase()
    for keyword in _S10_KEYWORDS:
        database.add(
            AttackKeyword(keyword=keyword, vector=AttackVector.LOCAL)
        )
    return database


def _s10_text_pool(distinct_texts: int) -> List[str]:
    """Deterministic pool of distinct post texts (1/8 keyword-bearing)."""
    topics = _S10_TOPICS
    return [
        f"{topics[i % len(topics)]} unit{i:06d}"
        for i in range(distinct_texts)
    ]


def _s10_run_phase(
    runtime,
    *,
    n_posts: int,
    batch_posts: int,
    shards: int,
    pool: Sequence[str],
    posts_per_day: int,
) -> List[float]:
    """Push the deterministic stream through one runtime, timing ticks.

    Events are generated on the fly and handed to the push-style
    :meth:`~repro.stream.sharding.ShardedStreamRuntime.ingest`, so no
    feed retains the stream and the peak-RSS samples reflect the index
    layout under test, not a pre-materialized post list.  Text indices
    map *monotonically* onto the stream (``pool[i * n_pool // n_posts]``,
    each distinct text used for a consecutive run of posts) — the
    realistic shape for evolving chatter, and the one that lets the
    tiered side actually retire cold texts from the interner pool.
    Generation is untimed; only ``ingest`` is on the clock.
    """
    import datetime as dt

    from repro.social.post import Engagement
    from repro.stream.feed import PostEvent

    regions = _S9_REGIONS
    n_pool = len(pool)
    per_tick = batch_posts * shards
    seqs = [0] * shards
    tick_seconds: List[float] = []
    for start in range(0, n_posts, per_tick):
        batches: List[List[PostEvent]] = [[] for _ in range(shards)]
        for i in range(start, min(start + per_tick, n_posts)):
            shard = i % shards
            post = Post(
                post_id=f"s10{i:08d}",
                text=pool[(i * n_pool) // n_posts],
                author=f"user{i % 311}",
                created_at=dt.date.fromordinal(
                    _S9_START_ORDINAL + i // posts_per_day
                ),
                region=regions[i % 3],
                engagement=Engagement(
                    views=(i * 7) % 4096,
                    likes=(i * 3) % 512,
                    reposts=i % 65,
                    replies=i % 23,
                ),
            )
            batches[shard].append(PostEvent(seq=seqs[shard], post=post))
            seqs[shard] += 1
        begin = time.perf_counter()
        runtime.ingest(batches)
        tick_seconds.append(time.perf_counter() - begin)
    return tick_seconds


def _s10_steady_seconds(tick_seconds: Sequence[float]) -> float:
    """Mean per-tick latency over the final 20% of ticks.

    By then the flat side's corpus — and with it each consolidation —
    has reached its full-stream size, while the tiered side has settled
    into its bounded hot/warm working set; the tail mean is the
    steady-state cost an always-on monitor actually pays.
    """
    window = max(1, len(tick_seconds) // 5)
    tail = tick_seconds[-window:]
    return sum(tail) / len(tail)


def _s10_alert_keys(runtime) -> List[tuple]:
    return [
        (
            alert.upto_year,
            alert.changes,
            alert.result.insider_table.as_rows(),
        )
        for alert in runtime.alerts
    ]


def run_retention_bench(profile: str = "full") -> BenchResult:
    """Time tiered steady-state ticks against ticks without retention.

    Both phases drive the identical deterministic multi-year stream
    through a :class:`~repro.stream.sharding.ShardedStreamRuntime` —
    first with retention knobs set (hot/warm/cold tiers), then without
    (the flat phase: one unbounded warm span, default seal policy).
    ``naive_seconds`` / ``engine_seconds`` are the *steady-state
    per-tick latency means* (final 20% of ticks), so ``speedup`` is the
    flat-over-tiered latency ratio: the factor by which tier decay
    shrinks the always-on monitor's tick cost once the corpus has aged.

    The tiered phase runs first: ``ru_maxrss`` is a process-lifetime
    maximum, so its snapshot is an exact tiered ceiling and the flat
    phase can only push the counter higher.  ``extra.rss_ratio``
    (tiered peak over flat peak) must come in under the profile's
    budget — 0.5x on the acceptance profile.

    Equivalence is twofold: the two phases — identical stream,
    identical database — must raise identical alert sequences and
    finish on the identical SAI table, and a tiered sharded
    ``replay_scenario`` audit must hold parity (plus checkpoint
    resume and bounded memory) against the paper's batch monitor.
    """
    import gc

    from repro.analysis.benchjson import peak_rss_kb
    from repro.core.config import TargetApplication
    from repro.core.executor import resolve_executor
    from repro.stream.feed import SyntheticFeed
    from repro.stream.replay import replay_scenario
    from repro.stream.sharding import ShardedStreamRuntime

    if profile not in S10_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(S10_PROFILES)}, got {profile!r}"
        )
    dims = S10_PROFILES[profile]
    n_posts = dims["years"] * 365 * dims["posts_per_day"]
    shards = dims["shards"]
    pool = _s10_text_pool(dims["distinct_texts"])
    target = TargetApplication("fleet", "europe", "stream")

    def _phase(**index_knobs):
        analyze_text.cache_clear()
        runtime = ShardedStreamRuntime(
            [SyntheticFeed(()) for _ in range(shards)],
            _s10_database(),
            target=target,
            since_year=2019,
            batch_size=dims["batch_posts"],
            executor=resolve_executor(shards, prefer="thread"),
            **index_knobs,
        )
        ticks = _s10_run_phase(
            runtime,
            n_posts=n_posts,
            batch_posts=dims["batch_posts"],
            shards=shards,
            pool=pool,
            posts_per_day=dims["posts_per_day"],
        )
        result = runtime.current_result
        summary = {
            "ticks": ticks,
            "alerts": _s10_alert_keys(runtime),
            "table": result.sai.as_rows() if result is not None else None,
            "segments": runtime.shard_indexes[0].segment_stats,
        }
        runtime.close()
        return summary

    tiered = _phase(
        warm_span_days=dims["warm_span_days"],
        cold_age_days=dims["cold_age_days"],
    )
    tiered_rss = peak_rss_kb()
    gc.collect()

    flat = _phase()
    flat_rss = peak_rss_kb()

    engine_s = _s10_steady_seconds(tiered["ticks"])
    naive_s = _s10_steady_seconds(flat["ticks"])
    phases_agree = (
        tiered["alerts"] == flat["alerts"]
        and tiered["table"] == flat["table"]
        and tiered["table"] is not None
    )
    replay = replay_scenario(
        "excavator",
        months=dims["replay_months"],
        shards=2,
        warm_span_days=dims["warm_span_days"],
        cold_age_days=dims["cold_age_days"],
    )

    rss_ratio = (
        tiered_rss / flat_rss
        if tiered_rss is not None and flat_rss
        else None
    )
    budget = S10_RSS_RATIO_BUDGET[profile]
    return BenchResult(
        name="retention",
        workload={
            "posts": n_posts,
            "years": dims["years"],
            "posts_per_day": dims["posts_per_day"],
            "batch_posts": dims["batch_posts"],
            "shards": shards,
            "distinct_texts": len(pool),
            "warm_span_days": dims["warm_span_days"],
            "cold_age_days": dims["cold_age_days"],
            "profile": profile,
        },
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=phases_agree and replay.ok,
        extra={
            "profile": profile,
            "semantics": (
                "naive/engine seconds are steady-state per-tick latency "
                "means over the final 20% of ticks (no retention vs "
                "tiered); speedup is their ratio"
            ),
            "ticks": len(tiered["ticks"]),
            "steady_ticks": max(1, len(tiered["ticks"]) // 5),
            "tiered_total_seconds": round(sum(tiered["ticks"]), 4),
            "flat_total_seconds": round(sum(flat["ticks"]), 4),
            "peak_rss_kb_tiered_phase": tiered_rss,
            "peak_rss_kb_flat_phase": flat_rss,
            "rss_ratio": (
                round(rss_ratio, 4) if rss_ratio is not None else None
            ),
            "rss_ratio_budget": budget,
            "rss_within_budget": (
                rss_ratio is not None and rss_ratio <= budget
            ),
            "phase_alert_parity": phases_agree,
            "replay_scenario": "excavator",
            "replay_ok": replay.ok,
            "tiered_segments": tiered["segments"],
            "flat_segments": flat["segments"],
        },
    )


# -- cold-segment spill-to-disk vs fully resident tiers ----------------------

#: S12 workload profiles: the S10 multi-year sharded stream shape
#: replayed twice on the *tiered* index — once with cold segments
#: spilled to a disk store (bounded hydration cache), once fully
#: resident — comparing peak RSS and steady-state tick latency.
#: Unlike S10's pooled texts (which the arena interner dedupes until
#: cold columns cost almost nothing resident), every S12 post carries
#: a *distinct* ``text_chars``-sized text — the realistic chatter
#: shape, and the one where a decade-scale resident corpus actually
#: pays memory for posts it never re-reads.  ``full`` is the
#: acceptance workload (the 5-year S10 corpus dimensions); ``smoke``
#: is the CI profile.
S12_PROFILES: Dict[str, Dict[str, int]] = {
    "full": {
        "years": 5,
        "posts_per_day": 1024,
        "batch_posts": 256,
        "shards": 2,
        "text_chars": 360,
        "warm_span_days": 15,
        "cold_age_days": 120,
        "max_resident_cold": 4,
        "replay_months": 6,
    },
    "smoke": {
        "years": 2,
        "posts_per_day": 384,
        "batch_posts": 256,
        "shards": 2,
        "text_chars": 160,
        "warm_span_days": 60,
        "cold_age_days": 180,
        "max_resident_cold": 2,
        "replay_months": 2,
    },
}

#: Peak-RSS ratio budget (spilled phase over resident phase) per
#: profile.  Each phase runs in its own subprocess, so the two
#: ``ru_maxrss`` readings are independent standalone peaks — neither
#: inherits the other's allocator arenas nor its cumulative-maximum
#: counter.  The acceptance 0.5x claim lives on the full profile,
#: whose ~1.7M distinct-text cold posts (a tight 15-day warm span
#: ages out after 120 days, so almost the whole 5-year corpus is
#: cold) dominate the resident footprint; the smoke stream's cold
#: columns are small next to the
#: interpreter+NLP-memo baseline shared by both phases, so its budget
#: only guards the direction (spilling must never *cost* memory).
S12_RSS_RATIO_BUDGET: Dict[str, float] = {
    "full": 0.5,
    "smoke": 0.98,
}

#: Steady-state latency budget per profile: the spilled phase's steady
#: tick mean may exceed the resident phase's by at most this factor —
#: spilling happens once per cold seal and queries ride sidecars, so
#: the monitoring loop must not feel the disk.  Both phases run in
#: fresh subprocesses, so neither benefits from the other's warmed
#: allocator or branch caches.  The acceptance 10% bound is the full
#: profile's, whose 3650-tick tail averages out scheduler noise; the
#: smoke tail is ~100 ticks and a single cold-seal spill landing
#: inside it swings the mean, so its budget is wide enough to only
#: catch systematic per-tick regressions.
S12_LATENCY_RATIO_BUDGET: Dict[str, float] = {
    "full": 1.10,
    "smoke": 1.50,
}


def _s12_post_text(i: int, text_chars: int) -> str:
    """Post ``i``'s distinct text, padded to ``text_chars`` characters.

    The unique ``unit%07d`` token makes every post's text distinct (so
    resident cold columns pay for every post, like real chatter); the
    filler sentence is shared vocabulary, keeping the NLP token space —
    and with it the per-tick analysis cost — comparable across posts.
    """
    topics = _S10_TOPICS
    stem = f"{topics[i % len(topics)]} unit{i:07d} "
    filler = (
        "field report from the workshop floor logged for the audit "
        "trail with torque specs and harness pinouts attached "
    )
    if len(stem) >= text_chars:
        return stem[:text_chars]
    need = text_chars - len(stem)
    body = (filler * (need // len(filler) + 1))[:need]
    return stem + body


def _s12_run_phase(
    runtime,
    *,
    n_posts: int,
    batch_posts: int,
    shards: int,
    posts_per_day: int,
    text_chars: int,
) -> List[float]:
    """Push the distinct-text S12 stream through one runtime.

    Same push-style shape as :func:`_s10_run_phase`, but each post's
    text is synthesized inline — nothing outside the index retains a
    reference, so the phase's peak RSS reflects what the index layout
    keeps, not a pre-materialized text pool.  Generation is untimed;
    only ``ingest`` is on the clock.
    """
    import datetime as dt

    from repro.social.post import Engagement
    from repro.stream.feed import PostEvent

    regions = _S9_REGIONS
    per_tick = batch_posts * shards
    seqs = [0] * shards
    tick_seconds: List[float] = []
    for start in range(0, n_posts, per_tick):
        batches: List[List[PostEvent]] = [[] for _ in range(shards)]
        for i in range(start, min(start + per_tick, n_posts)):
            shard = i % shards
            post = Post(
                post_id=f"s12{i:08d}",
                text=_s12_post_text(i, text_chars),
                author=f"user{i % 311}",
                created_at=dt.date.fromordinal(
                    _S9_START_ORDINAL + i // posts_per_day
                ),
                region=regions[i % 3],
                engagement=Engagement(
                    views=(i * 7) % 4096,
                    likes=(i * 3) % 512,
                    reposts=i % 65,
                    replies=i % 23,
                ),
            )
            batches[shard].append(PostEvent(seq=seqs[shard], post=post))
            seqs[shard] += 1
        begin = time.perf_counter()
        runtime.ingest(batches)
        tick_seconds.append(time.perf_counter() - begin)
    return tick_seconds


def _s12_phase_main(config_path: str) -> None:
    """Subprocess entry point: run one S12 phase, write a JSON summary.

    The config file carries the profile dimensions plus ``spill_dir``
    (``null`` for the resident phase) and ``out`` (where to write the
    result).  Running each phase in its own interpreter makes the two
    ``ru_maxrss`` readings independent standalone peaks — in a shared
    process the second phase reuses the first's allocator arenas and
    inherits its cumulative maximum, understating the resident cost.
    """
    import json as json_mod
    from pathlib import Path

    from repro.analysis.benchjson import peak_rss_kb
    from repro.core.config import TargetApplication
    from repro.core.executor import resolve_executor
    from repro.stream.feed import SyntheticFeed
    from repro.stream.sharding import ShardedStreamRuntime

    config = json_mod.loads(Path(config_path).read_text())
    dims = config["dims"]
    shards = dims["shards"]
    n_posts = dims["years"] * 365 * dims["posts_per_day"]
    index_knobs = {}
    if config.get("spill_dir"):
        index_knobs["spill_dir"] = config["spill_dir"]
        index_knobs["max_resident_cold"] = dims["max_resident_cold"]
    runtime = ShardedStreamRuntime(
        [SyntheticFeed(()) for _ in range(shards)],
        _s10_database(),
        target=TargetApplication("fleet", "europe", "stream"),
        since_year=2019,
        batch_size=dims["batch_posts"],
        executor=resolve_executor(shards, prefer="thread"),
        warm_span_days=dims["warm_span_days"],
        cold_age_days=dims["cold_age_days"],
        **index_knobs,
    )
    ticks = _s12_run_phase(
        runtime,
        n_posts=n_posts,
        batch_posts=dims["batch_posts"],
        shards=shards,
        posts_per_day=dims["posts_per_day"],
        text_chars=dims["text_chars"],
    )
    result = runtime.current_result
    store = runtime.store
    summary = {
        "ticks": ticks,
        "alerts": _s10_alert_keys(runtime),
        "table": result.sai.as_rows() if result is not None else None,
        "segments": runtime.shard_indexes[0].segment_stats,
        "store": dict(store.stats) if store is not None else None,
        "peak_rss_kb": peak_rss_kb(),
    }
    runtime.close()
    Path(config["out"]).write_text(json_mod.dumps(summary))


#: ``python -c`` bootstrap for S12 phase subprocesses: argv[1] is the
#: src root to import from, argv[2] the phase config file.
_S12_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.analysis.benchkit import _s12_phase_main; "
    "_s12_phase_main(sys.argv[2])"
)


def run_spill_bench(profile: str = "full") -> BenchResult:
    """Time spilled-to-disk cold tiers against fully resident ones.

    Both phases drive the identical deterministic distinct-text stream
    through a tiered :class:`~repro.stream.sharding.ShardedStreamRuntime`
    — one with a :class:`~repro.stream.store.SegmentStore` attached
    (cold seals spill their columns to disk, a small LRU keeps at most
    ``max_resident_cold`` segments hydrated), one fully resident.
    Each phase runs in its own subprocess so its peak RSS and tick
    latencies are standalone measurements (see :func:`_s12_phase_main`).
    ``naive_seconds`` / ``engine_seconds`` are the steady-state
    per-tick latency means of the spilled and resident phases, so
    ``speedup`` hovers at ~1.0x by design; the gates are
    ``extra.rss_ratio`` (spilled peak over resident peak, under the
    profile budget — 0.5x on acceptance) and ``extra.latency_ratio``
    (spilled-over-resident steady tick mean, within
    :data:`S12_LATENCY_RATIO_BUDGET`).

    Equivalence is bit-level: both phases must raise identical alert
    sequences and finish on the identical SAI table, and a spilled
    sharded ``replay_scenario`` audit (checkpoint save/restore against
    the same store) must hold parity against the paper's batch monitor.
    ``extra.store_bytes`` / ``extra.hydrations`` ride next to
    ``extra.peak_rss_kb`` so ``run_benches.py --check`` can flag store
    blow-ups exactly like RSS ones.
    """
    import json as json_mod
    import subprocess
    import sys as sys_mod
    import tempfile
    from pathlib import Path

    from repro.stream.replay import replay_scenario

    if profile not in S12_PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(S12_PROFILES)}, got {profile!r}"
        )
    dims = S12_PROFILES[profile]
    n_posts = dims["years"] * 365 * dims["posts_per_day"]
    shards = dims["shards"]
    src_root = str(Path(__file__).resolve().parents[2])

    def _phase(work_dir: Path, name: str, spill_dir) -> Dict[str, object]:
        config_path = work_dir / f"{name}.json"
        out_path = work_dir / f"{name}-result.json"
        config_path.write_text(
            json_mod.dumps(
                {
                    "dims": dims,
                    "spill_dir": str(spill_dir) if spill_dir else None,
                    "out": str(out_path),
                }
            )
        )
        proc = subprocess.run(
            [sys_mod.executable, "-c", _S12_BOOTSTRAP, src_root,
             str(config_path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out_path.is_file():
            raise RuntimeError(
                f"S12 {name} phase subprocess failed "
                f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}"
            )
        return json_mod.loads(out_path.read_text())

    with tempfile.TemporaryDirectory(prefix="s12-") as work:
        work_dir = Path(work)
        spill_dir = work_dir / "store"
        spilled = _phase(work_dir, "spilled", spill_dir)
        resident = _phase(work_dir, "resident", None)
    spilled_rss = spilled["peak_rss_kb"]
    resident_rss = resident["peak_rss_kb"]

    spilled_s = _s10_steady_seconds(spilled["ticks"])
    resident_s = _s10_steady_seconds(resident["ticks"])
    phases_agree = (
        spilled["alerts"] == resident["alerts"]
        and spilled["table"] == resident["table"]
        and spilled["table"] is not None
    )
    with tempfile.TemporaryDirectory(prefix="s12-replay-") as replay_dir:
        replay = replay_scenario(
            "excavator",
            months=dims["replay_months"],
            shards=2,
            warm_span_days=dims["warm_span_days"],
            cold_age_days=dims["cold_age_days"],
            spill_dir=replay_dir,
            max_resident_cold=dims["max_resident_cold"],
        )

    rss_ratio = (
        spilled_rss / resident_rss
        if spilled_rss is not None and resident_rss
        else None
    )
    latency_ratio = spilled_s / resident_s if resident_s > 0 else None
    rss_budget = S12_RSS_RATIO_BUDGET[profile]
    latency_budget = S12_LATENCY_RATIO_BUDGET[profile]
    store_stats = spilled["store"] or {}
    return BenchResult(
        name="spill",
        workload={
            "posts": n_posts,
            "years": dims["years"],
            "posts_per_day": dims["posts_per_day"],
            "batch_posts": dims["batch_posts"],
            "shards": shards,
            "distinct_texts": n_posts,
            "text_chars": dims["text_chars"],
            "warm_span_days": dims["warm_span_days"],
            "cold_age_days": dims["cold_age_days"],
            "max_resident_cold": dims["max_resident_cold"],
            "profile": profile,
        },
        naive_seconds=spilled_s,
        engine_seconds=resident_s,
        equivalent=phases_agree and replay.ok,
        extra={
            "profile": profile,
            "semantics": (
                "naive/engine seconds are steady-state per-tick latency "
                "means over the final 20% of ticks (spilled vs resident "
                "tiers); speedup ~1.0x by design, the gates are "
                "rss_ratio and latency_ratio"
            ),
            "ticks": len(spilled["ticks"]),
            "steady_ticks": max(1, len(spilled["ticks"]) // 5),
            "spilled_total_seconds": round(sum(spilled["ticks"]), 4),
            "resident_total_seconds": round(sum(resident["ticks"]), 4),
            "peak_rss_kb_spilled_phase": spilled_rss,
            "peak_rss_kb_resident_phase": resident_rss,
            "rss_ratio": (
                round(rss_ratio, 4) if rss_ratio is not None else None
            ),
            "rss_ratio_budget": rss_budget,
            "rss_within_budget": (
                rss_ratio is not None and rss_ratio <= rss_budget
            ),
            "latency_ratio": (
                round(latency_ratio, 4) if latency_ratio is not None else None
            ),
            "latency_ratio_budget": latency_budget,
            "latency_within_budget": (
                latency_ratio is not None and latency_ratio <= latency_budget
            ),
            "store_bytes": store_stats.get("bytes"),
            "store_segments": store_stats.get("segments"),
            "spills": store_stats.get("spills"),
            "hydrations": store_stats.get("hydrations"),
            "cache_hits": store_stats.get("cache_hits"),
            "cache_evictions": store_stats.get("cache_evictions"),
            "phase_alert_parity": phases_agree,
            "replay_scenario": "excavator",
            "replay_ok": replay.ok,
            "spilled_segments": spilled["segments"],
            "resident_segments": resident["segments"],
        },
    )


# -- telemetry overhead: instrumented vs NullRegistry ticks ------------------

#: Acceptance gate: a fully-enabled metrics registry (counters, gauges,
#: histograms *and* span tracing on every tick stage) may cost at most
#: this much extra tick latency over the NullRegistry default path.
OBS_OVERHEAD_BUDGET_PCT = 3.0


def run_obs_overhead_bench(
    workload: Optional[BenchWorkload] = None,
    *,
    rounds: int = 9,
    batch_size: int = 200,
) -> BenchResult:
    """Time a full instrumented stream run against the NullRegistry path.

    The telemetry layer's whole contract is "free when off, cheap when
    on": the default :class:`~repro.obs.registry.NullRegistry` path must
    cost nothing, and a live :class:`~repro.obs.registry.MetricsRegistry`
    with span tracing on every tick stage must stay within
    :data:`OBS_OVERHEAD_BUDGET_PCT` of it.  Both sides consume the
    identical fleet-scale feed through identical runtimes; rounds are
    interleaved (null, instrumented, null, …) and each side reports its
    **minimum** total wall time so scheduler noise cancels instead of
    accumulating.  ``naive_seconds`` is the instrumented side, so the
    reported ``speedup`` reads as "instrumented-over-null cost ratio"
    and hovers at ~1.0x; the gate is ``extra.overhead_pct``.

    Equivalence checks the instrumentation is purely observational:
    identical final insider tables, SAI rows and health-document
    counters on both sides — and the registry's own counters must agree
    with those counters.
    """
    from repro.core.config import TargetApplication
    from repro.obs.registry import MetricsRegistry
    from repro.stream.feed import SyntheticFeed
    from repro.stream.runtime import StreamRuntime

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    load = workload or fleet_workload()
    posts = sorted(
        load.corpus.posts, key=lambda p: (p.created_at, p.post_id)
    )
    target = TargetApplication("fleet_member", "europe", "fleet")

    def _run(metrics):
        # The NLP memo stays warm across rounds (the untimed warm-up
        # fills it): re-analysing identical texts per round would let
        # the cache-miss pass's variance swamp the few-microsecond
        # instrumentation cost this bench exists to measure.
        runtime = StreamRuntime(
            SyntheticFeed(posts),
            load.database,
            target=target,
            batch_size=batch_size,
            metrics=metrics,
        )
        start = time.perf_counter()
        for _ in runtime.run():
            pass
        elapsed = time.perf_counter() - start
        result = runtime.current_result
        counters = runtime.runtime_health()["counters"]
        return elapsed, {
            "table": (
                result.insider_table.as_rows() if result is not None else None
            ),
            "sai": result.sai.as_rows() if result is not None else None,
            "counters": {
                k: counters[k]
                for k in ("ticks", "posts_ingested", "retunes", "alerts")
            },
        }

    # Untimed warm-up round: both sides start from warm code paths.
    _run(None)
    null_times: List[float] = []
    instr_times: List[float] = []
    null_summary = instr_summary = None
    registry: Optional[MetricsRegistry] = None
    for _ in range(rounds):
        elapsed, null_summary = _run(None)
        null_times.append(elapsed)
        registry = MetricsRegistry()
        elapsed, instr_summary = _run(registry)
        instr_times.append(elapsed)

    engine_s = min(null_times)
    naive_s = min(instr_times)
    overhead_pct = (naive_s / engine_s - 1.0) * 100.0 if engine_s else 0.0
    assert registry is not None and instr_summary is not None
    collected = registry.collect()
    registry_agrees = (
        collected["psp_ticks_total"].value()
        == instr_summary["counters"]["ticks"]
        and collected["psp_posts_ingested_total"].value()
        == instr_summary["counters"]["posts_ingested"]
        and collected["psp_alerts_total"].value()
        == instr_summary["counters"]["alerts"]
    )
    return BenchResult(
        name="obs_overhead",
        workload={
            **load.dimensions(),
            "batch_size": batch_size,
            "rounds": rounds,
        },
        naive_seconds=naive_s,
        engine_seconds=engine_s,
        equivalent=null_summary == instr_summary and registry_agrees,
        extra={
            "semantics": (
                "naive is the instrumented run, engine the NullRegistry "
                "run; speedup ~1.0x by design, the gate is overhead_pct"
            ),
            "overhead_pct": round(overhead_pct, 2),
            "overhead_budget_pct": OBS_OVERHEAD_BUDGET_PCT,
            "within_budget": overhead_pct <= OBS_OVERHEAD_BUDGET_PCT,
            "null_seconds_per_round": [round(t, 4) for t in null_times],
            "instrumented_seconds_per_round": [
                round(t, 4) for t in instr_times
            ],
            "registry_matches_health_counters": registry_agrees,
            "metrics": registry.snapshot(),
        },
    )


#: Registry used by ``benchmarks/run_benches.py``.
BENCH_RUNNERS: Dict[str, Callable[[], BenchResult]] = {
    "indexed_corpus": run_indexed_corpus_bench,
    "batch_engine": run_batch_engine_bench,
    "sentiment_memo": run_sentiment_memo_bench,
    "tara_batch": run_tara_batch_bench,
    "stream": run_stream_bench,
    "shard": run_shard_bench,
    "columnar": run_columnar_bench,
    "retention": run_retention_bench,
    "spill": run_spill_bench,
    "obs_overhead": run_obs_overhead_bench,
}

#: Benches whose runner accepts a ``profile`` keyword ("full"/"smoke");
#: ``run_benches.py --smoke`` switches these to their smoke profile.
PROFILED_BENCHES = frozenset({"columnar", "retention", "spill"})
