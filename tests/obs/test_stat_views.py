"""Shape-pinning tests for the unified health views.

``repro.obs.views`` promises two things this file pins:

* every runtime, single-feed or sharded, reports one health document
  shape, with one index row per shard;
* the registry's ``psp_*_total`` counters and the health document's
  counter block stay equal — the "one source" contract.
"""

import json

from repro.core.config import TargetApplication
from repro.obs.registry import MetricsRegistry
from repro.obs.views import (
    HEALTH_SCHEMA_VERSION,
    describe_stages,
    runtime_health,
    stage_latencies,
)
from repro.social import ecm_reprogramming_corpus
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from repro.stream.sharding import ShardedStreamRuntime, shard_feeds
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")

#: The health document's key order, which every runtime reports.
HEALTH_KEYS = [
    "health_schema",
    "runtime",
    "counters",
    "stages",
    "shards",
    "executor",
    "cursors",
    "shard_stats",
]


def _single(**kwargs):
    return StreamRuntime(
        SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        batch_size=300,
        **kwargs,
    )


def _sharded(**kwargs):
    return ShardedStreamRuntime(
        shard_feeds(list(ecm_reprogramming_corpus().posts), 2),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        batch_size=300,
        **kwargs,
    )


class TestOneSourceContract:
    COUNTER_TO_HEALTH = {
        "psp_ticks_total": "ticks",
        "psp_posts_ingested_total": "posts_ingested",
        "psp_posts_rejected_total": "posts_rejected",
        "psp_retunes_total": "retunes",
        "psp_forced_retunes_total": "forced_retunes",
        "psp_tara_rescores_total": "tara_rescores",
        "psp_alerts_total": "alerts",
    }

    def _assert_counters_agree(self, runtime):
        counters = runtime_health(runtime)["counters"]
        collected = runtime.metrics.collect()
        for metric, key in self.COUNTER_TO_HEALTH.items():
            assert collected[metric].value() == counters[key], metric
        assert collected["psp_keywords_learned_total"].value() == len(
            counters["learned_keywords"]
        )

    def test_single_runtime_registry_equals_health(self):
        runtime = _single(metrics=MetricsRegistry())
        runtime.run()
        self._assert_counters_agree(runtime)

    def test_sharded_runtime_registry_equals_health(self):
        runtime = _sharded(metrics=MetricsRegistry())
        runtime.run()
        self._assert_counters_agree(runtime)


class TestHealthDocument:
    def test_single_runtime_health(self):
        runtime = _single(metrics=MetricsRegistry())
        runtime.run()
        health = runtime_health(runtime)
        assert list(health) == HEALTH_KEYS
        assert health["health_schema"] == HEALTH_SCHEMA_VERSION == 2
        assert health["runtime"] == "sharded"
        assert health["executor"] == "serial"
        assert health["counters"]["ticks"] == len(runtime.ticks)
        assert health["shards"] == 1
        assert health["cursors"] == [runtime.cursor]
        assert health["shard_stats"] == [
            {
                "shard": 0,
                "cursor": runtime.cursor,
                "posts": runtime.deltas.observed_posts,
                "index": runtime.index.segment_stats,
            }
        ]
        assert health["stages"]["tick"]["count"] == len(runtime.ticks)

    def test_sharded_runtime_health(self):
        runtime = _sharded(metrics=MetricsRegistry())
        runtime.run()
        health = runtime_health(runtime)
        assert list(health) == HEALTH_KEYS
        assert health["runtime"] == "sharded"
        assert health["shards"] == 2
        assert len(health["shard_stats"]) == 2
        for row in health["shard_stats"]:
            assert set(row) == {"shard", "cursor", "posts", "index"}

        # Each shard counts the accepted posts it folded.
        posts = [row["posts"] for row in health["shard_stats"]]
        assert all(count > 0 for count in posts)
        assert sum(posts) == health["counters"]["posts_ingested"]
        assert posts == [
            sum(tick.shard_accepted[shard] for tick in runtime.ticks)
            for shard in range(2)
        ]
        # The counts survive a lean (index-less) restore.
        restored = _sharded()
        restored.load_state(
            json.loads(json.dumps(runtime.state_dict(include_index=False)))
        )
        assert [
            row["posts"] for row in runtime_health(restored)["shard_stats"]
        ] == posts

    def test_null_registry_yields_empty_stages(self):
        runtime = _single()
        runtime.run()
        assert runtime_health(runtime)["stages"] == {}

    def test_instrumentation_changes_only_the_stages(self):
        plain = _single()
        plain.run()
        instrumented = _single(metrics=MetricsRegistry())
        instrumented.run()
        plain_health = runtime_health(plain)
        instrumented_health = runtime_health(instrumented)
        assert plain_health.pop("stages") == {}
        assert instrumented_health.pop("stages")
        assert instrumented_health == plain_health


class TestStageLatencies:
    def test_stages_cover_the_tick_pipeline(self):
        runtime = _single(metrics=MetricsRegistry())
        runtime.run()
        stages = stage_latencies(runtime.metrics)
        for expected in ("shard_map", "shard_merge", "sai", "tick"):
            assert expected in stages, expected
            row = stages[expected]
            assert row["count"] > 0
            assert row["total_seconds"] >= 0
            assert row["mean_ms"] >= 0
        for retired in ("filter", "append", "delta_ingest"):
            assert retired not in stages, retired

    def test_empty_registry_is_empty(self):
        assert stage_latencies(MetricsRegistry()) == {}


class TestDescribeStages:
    def test_renders_canonical_order(self):
        stages = {
            "sai": {"count": 2, "total_seconds": 0.2, "mean_ms": 100.0},
            "shard_map": {"count": 2, "total_seconds": 0.1, "mean_ms": 50.0},
            "tick": {"count": 2, "total_seconds": 0.5, "mean_ms": 250.0},
        }
        text = describe_stages(stages)
        lines = [line.split()[0] for line in text.splitlines()]
        assert lines == ["shard_map", "sai", "tick"]
        assert "mean" in text and "total" in text

    def test_empty_input_is_none(self):
        assert describe_stages({}) is None
