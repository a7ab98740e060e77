"""Which program callables the traced run wraps, and the per-layer figures.

Each layer is named after its module.  ``install`` wraps the layers'
public entry points (and the one private tick body that both public
tick entry points run), and ``figures`` turns the recorded spans plus a
handful of end-of-run counters into the flat
``<module>.<fn>.{calls,self_s}`` figures listed in ``PER_LAYER``.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, List

from spans import Tracer

#: Every per-layer figure: (name, unit).
PER_LAYER = (
    ("import.self_s", "s"),
    ("social.registry.generate.self_s", "s"),
    ("social.multiplatform.search_many.calls", "count"),
    ("social.multiplatform.search_many.self_s", "s"),
    ("social.columnar.from_posts.calls", "count"),
    ("social.columnar.from_posts.self_s", "s"),
    ("social.columnar.extended_with.self_s", "s"),
    ("nlp.analysis.analyze_text.calls", "count"),
    ("nlp.analysis.analyze_text.self_s", "s"),
    ("nlp.analysis.miss_ratio", "ratio"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.pipeline.query.self_s", "s"),
    ("core.pipeline.sai.self_s", "s"),
    ("core.pipeline.split.self_s", "s"),
    ("core.pipeline.tune.self_s", "s"),
    ("core.monitor.tick_date.calls", "count"),
    ("core.monitor.tick_date.self_s", "s"),
    ("core.monitor.tick_date.p50_ms", "ms"),
    ("stream.sharding.ingest.calls", "count"),
    ("stream.sharding.ingest.self_s", "s"),
    ("stream.sharding.advance_to.p50_ms", "ms"),
    ("stream.deltas.compute_signal_delta.self_s", "s"),
    ("stream.deltas.compute_signal_delta_columnar.self_s", "s"),
    ("stream.tiers.append.self_s", "s"),
    ("stream.tiers.signal_backfill.self_s", "s"),
    ("stream.tiers.hot_seals", "count"),
    ("stream.tiers.consolidations", "count"),
    ("stream.tiers.cold_seals", "count"),
    ("stream.store.spill.calls", "count"),
    ("stream.store.spill.self_s", "s"),
    ("stream.store.bytes", "bytes"),
    ("stream.store.hydrate.calls", "count"),
    ("stream.store.hydrate.self_s", "s"),
    ("stream.store.cache_hit_ratio", "ratio"),
    ("stream.runtime.evaluate.self_s", "s"),
    ("stream.runtime.retunes", "count"),
    ("stream.runtime.rescores", "count"),
    ("stream.runtime.alerts", "count"),
    ("stream.checkpoint.state_dict.self_s", "s"),
    ("stream.checkpoint.state_dict.bytes", "bytes"),
    ("stream.checkpoint.restore.self_s", "s"),
    ("tara.model.compile.self_s", "s"),
    ("tara.scoring.score.calls", "count"),
    ("tara.scoring.score.self_s", "s"),
    ("obs.views.runtime_health.calls", "count"),
    ("obs.views.runtime_health.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def install() -> Tracer:
    """Wrap the program's layer entry points; returns the live tracer."""
    from repro.core import cache, monitor, pipeline
    from repro.nlp import analysis
    from repro.obs import views
    from repro.social import columnar, multiplatform, registry
    from repro.stream import deltas, runtime, sharding, store, tiers
    from repro.tara import model, scoring

    tracer = Tracer()
    info = analysis.analyze_text.cache_info()
    tracer.counts["memo_hits0"] = info.hits
    tracer.counts["memo_misses0"] = info.misses
    method = tracer.method
    for attr in ("corpus", "client", "database"):
        method(registry.ScenarioSpec, attr, "social.registry.generate")
    method(multiplatform.MultiPlatformClient, "search_many",
           "social.multiplatform.search_many")
    method(columnar.ColumnarCorpus, "from_posts", "social.columnar.from_posts")
    method(columnar.ColumnarCorpus, "extended_with",
           "social.columnar.extended_with")
    for cls, name in ((pipeline.QueryStage, "query"), (pipeline.SAIStage, "sai"),
                      (pipeline.SplitStage, "split"), (pipeline.TuneStage, "tune")):
        method(cls, "run", f"core.pipeline.{name}")
    method(monitor.PSPMonitor, "tick_date", "core.monitor.tick_date")
    # ``ingest`` (push) and ``advance_to`` (pull) both run one ``_ingest``.
    method(sharding.ShardedStreamRuntime, "_ingest", "stream.sharding.ingest")
    method(sharding.ShardedStreamRuntime, "advance_to",
           "stream.sharding.advance_to")
    method(tiers.TieredCorpusIndex, "append", "stream.tiers.append")
    method(tiers.TieredCorpusIndex, "signal_backfill",
           "stream.tiers.signal_backfill")
    method(store.SegmentStore, "spill", "stream.store.spill")
    method(store.SegmentStore, "hydrate", "stream.store.hydrate")

    def evaluated(result) -> None:
        retuned, rescored, alert = result
        tracer.count("retunes", int(retuned))
        tracer.count("rescores", int(rescored))
        tracer.count("alerts", int(alert is not None))

    method(runtime.TickEvaluator, "evaluate", "stream.runtime.evaluate",
           on_result=evaluated)

    def saved(state) -> None:
        tracer.count("state_bytes", len(json.dumps(state)))

    for cls in (sharding.ShardedStreamRuntime, runtime.StreamRuntime):
        method(cls, "state_dict", "stream.checkpoint.state_dict",
               on_result=saved)
        method(cls, "load_state", "stream.checkpoint.restore")
    method(scoring.BatchTaraScorer, "score", "tara.scoring.score")

    tracer.function(analysis, "analyze_text", "nlp.analysis.analyze_text")
    tracer.function(deltas, "compute_signal_delta",
                    "stream.deltas.compute_signal_delta")
    tracer.function(deltas, "compute_signal_delta_columnar",
                    "stream.deltas.compute_signal_delta_columnar")
    tracer.function(model, "compile_threat_model", "tara.model.compile")
    tracer.function(views, "runtime_health", "obs.views.runtime_health")

    tracer.collect(cache.CachedClient, "caches")
    tracer.collect(tiers.TieredCorpusIndex, "tiers")
    tracer.collect(store.SegmentStore, "stores")
    return tracer


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def figures(tracer: Tracer, import_s: float) -> Dict[str, float]:
    """The per-layer figures of one traced iteration (no trace overhead).

    Call after ``tracer.uninstall()``, so the memo's own counters are
    reachable again.
    """
    from repro.nlp.analysis import analyze_text

    summary = tracer.recorder.summary()
    out: Dict[str, float] = {"import.self_s": import_s}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span in summary:
            out[name] = summary[span][field]
    for span in ("core.monitor.tick_date", "stream.sharding.advance_to"):
        durations = tracer.recorder.durations(span)
        out[f"{span}.p50_ms"] = median(durations) * 1e3 if durations else 0.0

    info = analyze_text.cache_info()
    hits = info.hits - tracer.counts["memo_hits0"]
    misses = info.misses - tracer.counts["memo_misses0"]
    out["nlp.analysis.miss_ratio"] = _ratio(misses, hits + misses)

    caches = [client.stats for client in tracer.instances["caches"]]
    out["core.cache.hit_ratio"] = _ratio(
        sum(s.hits for s in caches), sum(s.lookups for s in caches)
    )
    tier_stats = [index.segment_stats for index in tracer.instances["tiers"]]
    for key in ("hot_seals", "consolidations", "cold_seals"):
        out[f"stream.tiers.{key}"] = sum(s[key] for s in tier_stats)
    stores = [s.stats for s in tracer.instances["stores"]]
    out["stream.store.bytes"] = max((s["bytes"] for s in stores), default=0)
    cache_hits = sum(s["cache_hits"] for s in stores)
    out["stream.store.cache_hit_ratio"] = _ratio(
        cache_hits, cache_hits + sum(s["hydrations"] for s in stores)
    )
    for key in ("retunes", "rescores", "alerts"):
        out[f"stream.runtime.{key}"] = tracer.counts.get(key, 0)
    out["stream.checkpoint.state_dict.bytes"] = tracer.counts.get("state_bytes", 0)
    out["trace.spans"] = len(tracer.recorder)
    return {
        name: float(out.get(name, 0.0))
        for name, _unit in PER_LAYER
        if name != "trace.overhead_s"
    }


def merge(per_iteration: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each figure over the traced iterations of one run."""
    return {
        name: median(figures[name] for figures in per_iteration)
        for name in per_iteration[0]
    }
