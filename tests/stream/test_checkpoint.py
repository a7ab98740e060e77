"""Tests for streaming checkpoint/resume.

The acceptance property: a checkpointed-then-resumed runtime produces
the same alerts as an uninterrupted run over the same feed.
"""

import json

import pytest

from repro.core.config import TargetApplication
from repro.social import ecm_reprogramming_corpus
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_state,
    load_checkpoint,
    restore_runtime,
    save_checkpoint,
    save_delta_checkpoint,
)
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from tests.conftest import build_ecm_database

ECM_TARGET = TargetApplication("car", "europe", "passenger")
BATCH = 300


def _runtime(**kwargs):
    return StreamRuntime(
        SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        batch_size=BATCH,
        **kwargs,
    )


def _alert_keys(runtime):
    return [
        (
            alert.upto_year,
            alert.changes,
            alert.result.insider_table.as_rows(),
        )
        for alert in runtime.alerts
    ]


class TestResumeParity:
    @pytest.mark.parametrize("stop_after", [1, 3, 5])
    def test_resumed_run_emits_remaining_alerts(self, tmp_path, stop_after):
        reference = _runtime()
        reference.run()

        interrupted = _runtime()
        for _ in range(stop_after):
            assert interrupted.step() is not None
        path = save_checkpoint(interrupted, tmp_path / "run.ckpt.json")

        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert resumed.cursor == interrupted.cursor
        resumed.run()

        assert (
            _alert_keys(interrupted) + _alert_keys(resumed)
            == _alert_keys(reference)
        )
        assert (
            resumed.current_table.as_rows()
            == reference.current_table.as_rows()
        )
        assert (
            resumed.current_result.sai.as_rows()
            == reference.current_result.sai.as_rows()
        )

    def test_resume_with_tara_rescores_identically(self, tmp_path, fig4_network):
        reference = _runtime(network=fig4_network)
        reference.run()

        interrupted = _runtime(network=fig4_network)
        for _ in range(3):
            interrupted.step()
        path = save_checkpoint(interrupted, tmp_path / "tara.ckpt.json")
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
            network=fig4_network,
        )
        resumed.run()
        combined = [a.tara for a in interrupted.alerts + resumed.alerts]
        assert combined == [a.tara for a in reference.alerts]


class TestCheckpointFormat:
    def test_state_is_json_round_trippable(self):
        runtime = _runtime()
        runtime.step()
        state = checkpoint_state(runtime)
        assert state["checkpoint_version"] == CHECKPOINT_VERSION
        assert state == json.loads(json.dumps(state))

    def test_load_validates_version(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "v.ckpt.json")
        payload = json.loads(path.read_text())
        payload["checkpoint_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checkpoint version"):
            load_checkpoint(path)

    def test_load_requires_runtime_state(self, tmp_path):
        path = tmp_path / "empty.ckpt.json"
        path.write_text(json.dumps({"checkpoint_version": CHECKPOINT_VERSION}))
        with pytest.raises(ValueError, match="runtime"):
            load_checkpoint(path)

    def test_restore_rejects_mismatched_database(self, tmp_path):
        from tests.conftest import build_excavator_database

        runtime = _runtime()
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "db.ckpt.json")
        with pytest.raises(ValueError, match="keyword set"):
            restore_runtime(
                path,
                SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
                build_excavator_database(),
                target=ECM_TARGET,
            )

    def test_stats_report_observed_posts_after_restore(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "s.ckpt.json")
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        # the ingest counter comes from the aggregates, not the index,
        # so it also survives lean (include_index=False) restores
        ingested = resumed.runtime_health()["counters"]["posts_ingested"]
        assert ingested > 0
        assert ingested == runtime.runtime_health()["counters"][
            "posts_ingested"
        ]

    def test_reannotated_database_drops_cached_classifications(self, tmp_path):
        import datetime as dt

        from repro.core.config import PSPConfig
        from repro.core.keywords import AttackKeyword, KeywordDatabase
        from repro.social.post import Post

        # Staleness retuning off: this test is about the cached
        # classification being dropped, and a 1-post batch on a 2-post
        # baseline would trip the volume-drift policy regardless.
        config = PSPConfig(stream_staleness_share=None)

        def build_db(owner_approved):
            db = KeywordDatabase()
            db.add(
                AttackKeyword(
                    keyword="dpfdelete", owner_approved=owner_approved
                )
            )
            return db

        posts = [
            Post(
                post_id=f"x{i}",
                text="my #dpfdelete was worth it",
                author=f"u{i}",
                created_at=dt.date(2020, 1, 1 + i),
            )
            for i in range(3)
        ]
        feed = SyntheticFeed(posts)
        runtime = StreamRuntime(feed, build_db(True), batch_size=2,
                                config=config)
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "ann.ckpt.json")

        # the analyst flips the annotation; same keyword set, new version
        reannotated = build_db(True)
        reannotated.annotate("dpfdelete", owner_approved=False)
        resumed = restore_runtime(
            path, SyntheticFeed(posts), reannotated, batch_size=2,
            config=config,
        )
        tick = resumed.step()
        # the stale insider=True verdict was dropped: with the keyword
        # now annotated outsider, the dirty batch is not insider-relevant
        assert not tick.retuned
        assert resumed.current_result is None or not any(
            c.insider
            for c in resumed.current_result.split.insider
        )

    def test_cursor_and_counters_survive(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "c.ckpt.json")
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert resumed.cursor == runtime.cursor
        assert (
            resumed.runtime_health()["counters"]["retunes"]
            == runtime.runtime_health()["counters"]["retunes"]
        )
        assert (
            resumed.current_table.as_rows() == runtime.current_table.as_rows()
        )


class TestIndexRestoration:
    """Base checkpoints restore the columnar index segments exactly."""

    def test_resumed_index_segments_match_uninterrupted(self, tmp_path):
        reference = _runtime(compact_threshold=128)
        reference.run()
        # The parity below must cover real compaction churn.
        assert reference.index.segment_stats["compactions"] >= 2

        interrupted = _runtime(compact_threshold=128)
        for _ in range(3):
            interrupted.step()
        path = save_checkpoint(interrupted, tmp_path / "ix.ckpt.json")

        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        # Immediately queryable with the exact base/tail split — not a
        # rebuilt approximation of it.
        assert resumed.index.segment_stats == interrupted.index.segment_stats
        assert list(resumed.index.posts) == list(interrupted.index.posts)

        resumed.run()
        assert resumed.index.segment_stats == reference.index.segment_stats
        assert [p.post_id for p in resumed.index.posts] == [
            p.post_id for p in reference.index.posts
        ]
        for keyword in build_ecm_database().keywords:
            assert [
                p.post_id for p in resumed.index.matching(keyword)
            ] == [p.post_id for p in reference.index.matching(keyword)]
        assert _alert_keys(interrupted) + _alert_keys(resumed) == (
            _alert_keys(reference)
        )

    def test_checkpoint_state_is_json_serialisable_with_index(self):
        runtime = _runtime()
        runtime.step()
        payload = checkpoint_state(runtime)
        assert "index" in payload["runtime"]
        json.dumps(payload)

    def test_lean_checkpoint_omits_index_and_still_resumes(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        payload = checkpoint_state(runtime, include_index=False)
        assert "index" not in payload["runtime"]
        path = tmp_path / "lean.ckpt.json"
        path.write_text(json.dumps(payload))
        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert len(resumed.index) == 0
        assert resumed.cursor == runtime.cursor


class TestDeltaCheckpoints:
    """Base + delta restore == uninterrupted run, at O(changed) save cost."""

    def test_delta_requires_a_base(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        with pytest.raises(ValueError):
            save_delta_checkpoint(runtime, tmp_path / "orphan.json")

    def test_resumed_from_delta_matches_uninterrupted(self, tmp_path):
        reference = _runtime()
        reference.run()

        interrupted = _runtime()
        interrupted.step()
        base_path = save_checkpoint(interrupted, tmp_path / "base.json")
        interrupted.step()
        interrupted.step()
        delta_path = save_delta_checkpoint(interrupted, tmp_path / "delta.json")

        resumed = restore_runtime(
            delta_path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            base=base_path,
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert resumed.cursor == interrupted.cursor
        resumed.run()
        assert _alert_keys(resumed) == _alert_keys(reference)
        assert (
            resumed.current_table.as_rows()
            == reference.current_table.as_rows()
        )

    def test_deltas_are_cumulative_against_one_base(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        base_path = save_checkpoint(runtime, tmp_path / "base.json")
        runtime.step()
        save_delta_checkpoint(runtime, tmp_path / "delta1.json")
        runtime.step()
        latest = save_delta_checkpoint(runtime, tmp_path / "delta2.json")

        # base + latest delta alone restores the full current state;
        # delta1 is deletable.
        resumed = restore_runtime(
            latest,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            base=base_path,
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert resumed.cursor == runtime.cursor
        assert resumed.deltas.state_dict()["buckets"] == (
            runtime.deltas.state_dict()["buckets"]
        )

    def test_delta_save_is_o_changed_keywords(self, tmp_path):
        runtime = _runtime()
        runtime.run()
        save_checkpoint(runtime, tmp_path / "base.json")
        # Nothing dirtied since the base: the delta carries no buckets.
        delta_path = save_delta_checkpoint(runtime, tmp_path / "empty.json")
        payload = json.loads(delta_path.read_text())
        assert payload["kind"] == "delta"
        assert payload["runtime_delta"]["deltas_delta"]["changed"] == {}

    def test_restore_rejects_mismatched_base(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        save_checkpoint(runtime, tmp_path / "base.json")
        runtime.step()
        delta_path = save_delta_checkpoint(runtime, tmp_path / "delta.json")

        other = _runtime()
        other.step()
        other.step()
        other_base = save_checkpoint(other, tmp_path / "other_base.json")

        with pytest.raises(ValueError):
            restore_runtime(
                delta_path,
                SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
                build_ecm_database(),
                base=other_base,
                target=ECM_TARGET,
            )

    def test_restore_from_delta_needs_base_argument(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        save_checkpoint(runtime, tmp_path / "base.json")
        delta_path = save_delta_checkpoint(runtime, tmp_path / "delta.json")
        with pytest.raises(ValueError):
            restore_runtime(
                delta_path,
                SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
                build_ecm_database(),
            )

    def test_restored_runtime_keeps_delta_saving(self, tmp_path):
        runtime = _runtime()
        runtime.step()
        base_path = save_checkpoint(runtime, tmp_path / "base.json")
        runtime.step()
        delta_path = save_delta_checkpoint(runtime, tmp_path / "delta.json")

        resumed = restore_runtime(
            delta_path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            base=base_path,
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        resumed.step()
        # No fresh base needed: the adopted base id keeps the chain going.
        next_delta = save_delta_checkpoint(resumed, tmp_path / "delta2.json")
        payload = json.loads(next_delta.read_text())
        assert payload["base_id"] == json.loads(base_path.read_text())["base_id"]

    def test_base_restore_resets_the_delta_baseline(self, tmp_path):
        """A resume must not re-persist the whole history in its deltas."""
        runtime = _runtime()
        runtime.run()
        base_path = save_checkpoint(runtime, tmp_path / "base.json")

        resumed = restore_runtime(
            base_path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        # Nothing changed since the base document: the first delta
        # carries no keyword buckets at all.
        delta_path = save_delta_checkpoint(resumed, tmp_path / "after.json")
        payload = json.loads(delta_path.read_text())
        assert payload["runtime_delta"]["deltas_delta"]["changed"] == {}
        assert len(delta_path.read_text()) < len(base_path.read_text())

    def test_sharded_runtime_rejected_before_writing(self, tmp_path):
        from repro.stream.sharding import ShardedStreamRuntime, shard_feeds

        sharded = ShardedStreamRuntime(
            shard_feeds(list(ecm_reprogramming_corpus().posts), 2),
            build_ecm_database(),
            target=ECM_TARGET,
        )
        sharded.tick()
        path = tmp_path / "sharded.json"
        with pytest.raises(TypeError, match="state_dict"):
            save_checkpoint(sharded, path)
        assert not path.exists()  # rejected before any file was written


class TestMetricsContinuity:
    """Restored runtimes continue their telemetry counters, not restart."""

    @staticmethod
    def _counters(registry):
        collected = registry.collect()
        return {
            name: instrument.samples()
            for name, instrument in collected.items()
            if instrument.kind == "counter"
        }

    def test_checkpoint_embeds_a_metrics_block_outside_the_hash(self, tmp_path):
        from repro.obs.registry import OBS_SCHEMA_VERSION, MetricsRegistry

        instrumented = _runtime(metrics=MetricsRegistry())
        instrumented.step()
        with_metrics = checkpoint_state(instrumented)
        block = with_metrics["metadata"]["metrics"]
        assert block["obs_schema"] == OBS_SCHEMA_VERSION
        assert block["metrics"]["psp_ticks_total"]["series"] == [
            {"labels": [], "value": 1}
        ]

        plain = _runtime()
        plain.step()
        without = checkpoint_state(plain)
        assert "metrics" not in without["metadata"]
        # The advisory block stays outside the delta base identity.
        assert with_metrics["base_id"] == without["base_id"]

    def test_resumed_counters_match_an_uninterrupted_run(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        reference = _runtime(metrics=MetricsRegistry())
        reference.run()

        interrupted = _runtime(metrics=MetricsRegistry())
        for _ in range(3):
            interrupted.step()
        path = save_checkpoint(interrupted, tmp_path / "run.ckpt.json")

        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
            metrics=MetricsRegistry(),
        )
        resumed.run()
        assert self._counters(resumed.metrics) == self._counters(
            reference.metrics
        )

    def test_resumed_gauges_report_the_live_state(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        interrupted = _runtime(metrics=MetricsRegistry())
        for _ in range(3):
            interrupted.step()
        path = save_checkpoint(interrupted, tmp_path / "run.ckpt.json")

        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
            metrics=MetricsRegistry(),
        )
        # Gauges are refreshed from the restored state at export time,
        # not added onto the sizes the checkpoint saved.
        for name in ("psp_feed_cursor", "psp_index_posts"):
            assert (
                resumed.metrics.collect()[name].samples()
                == interrupted.metrics.collect()[name].samples()
            ), name

    def test_delta_restore_prefers_the_cumulative_snapshot(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        runtime = _runtime(metrics=MetricsRegistry())
        runtime.step()
        base_path = save_checkpoint(runtime, tmp_path / "base.json")
        runtime.step()
        runtime.step()
        delta_path = save_delta_checkpoint(runtime, tmp_path / "delta.json")

        resumed = restore_runtime(
            delta_path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            base=base_path,
            target=ECM_TARGET,
            batch_size=BATCH,
            metrics=MetricsRegistry(),
        )
        # Three ticks happened before the delta save, not one.
        assert (
            resumed.metrics.collect()["psp_ticks_total"].value() == 3
        )

    def test_restore_without_a_registry_stays_uninstrumented(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        runtime = _runtime(metrics=MetricsRegistry())
        runtime.step()
        path = save_checkpoint(runtime, tmp_path / "run.ckpt.json")

        resumed = restore_runtime(
            path,
            SyntheticFeed.from_corpus(ecm_reprogramming_corpus()),
            build_ecm_database(),
            target=ECM_TARGET,
            batch_size=BATCH,
        )
        assert resumed.metrics.enabled is False
        resumed.run()  # the snapshot is advisory: resume still works
