"""Pipeline stages, composition, and fleet execution."""

import datetime as dt

import pytest

from repro import PSPConfig, PSPFramework, TargetApplication, TimeWindow
from repro.core.errors import PSPError
from repro.core.pipeline import (
    FinancialStage,
    LearnStage,
    PipelineContext,
    PipelineStage,
    PSPPipeline,
    QueryStage,
    SAIStage,
    SplitStage,
    TuneStage,
    run_fleet,
)
from repro.core.cache import CachedClient, TTLCache
from repro.social import InMemoryClient, excavator_corpus
from tests.conftest import build_excavator_database

TARGET = TargetApplication("excavator", "europe", "industrial")


def make_context(client, window=None, database=None):
    return PipelineContext(
        client=client,
        target=TARGET,
        database=database or build_excavator_database(),
        config=PSPConfig(),
        window=window or TimeWindow.full_history(),
    )


class CountingClient(InMemoryClient):
    """InMemoryClient that counts backend calls."""

    def __init__(self, corpus) -> None:
        super().__init__(corpus)
        self.calls = 0

    def search(self, query):
        self.calls += 1
        return super().search(query)

    def search_many(self, batch):
        self.calls += 1
        return super().search_many(batch)


class TestStages:
    def test_default_pipeline_order(self):
        assert PSPPipeline.default().stage_names == (
            "learn", "query", "sai", "split", "tune"
        )
        assert PSPPipeline.default(learn=False).stage_names == (
            "query", "sai", "split", "tune"
        )

    def test_full_run_fills_every_slot(self, excavator_client):
        context = make_context(excavator_client)
        PSPPipeline.default().run(context)
        assert context.batch is not None
        assert context.sai is not None and len(context.sai) > 0
        assert context.split is not None
        assert context.tuning is not None

    def test_matches_framework_run(self, excavator_client, excavator_framework):
        context = make_context(excavator_client)
        PSPPipeline.default(learn=False).run(context)
        result = excavator_framework.run(learn=False)
        assert context.sai.as_rows() == result.sai.as_rows()
        assert (
            context.tuning.insider_table.as_rows()
            == result.insider_table.as_rows()
        )

    def test_sai_stage_requires_query(self, excavator_client):
        context = make_context(excavator_client)
        with pytest.raises(PSPError, match="query"):
            SAIStage().run(context)

    def test_tune_stage_requires_split(self, excavator_client):
        context = make_context(excavator_client)
        with pytest.raises(PSPError, match="split"):
            TuneStage().run(context)

    def test_learn_stage_mutates_database(self, excavator_client):
        from repro.core.keywords import paper_seed_database

        database = paper_seed_database()
        context = make_context(excavator_client, database=database)
        size_before = len(database)
        version_before = database.version
        LearnStage().run(context)
        assert context.learned
        assert len(database) == size_before + len(context.learned)
        assert database.version > version_before

    def test_financial_stage_collects_assessments(self, excavator_framework):
        context = make_context(excavator_framework.client)
        pipeline = PSPPipeline.default(learn=False).followed_by(
            FinancialStage(excavator_framework.assess_financial, top=3)
        )
        pipeline.run(context)
        assert "dpfdelete" in context.financial
        assessment = context.financial["dpfdelete"]
        assert assessment.pae > 0

    def test_financial_stage_skips_unpriced_keywords(self, excavator_framework):
        # top=99 covers every insider keyword; the ones without market
        # data are skipped, not fatal.
        context = make_context(excavator_framework.client)
        pipeline = PSPPipeline.default(learn=False).followed_by(
            FinancialStage(excavator_framework.assess_financial, top=99)
        )
        pipeline.run(context)
        assert 1 <= len(context.financial) < len(context.sai)


class TestComposition:
    def test_without_removes_stage(self, excavator_client):
        pipeline = PSPPipeline.default().without("learn")
        assert "learn" not in pipeline.stage_names
        context = make_context(excavator_client)
        pipeline.run(context)
        assert context.learned == ()

    def test_without_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            PSPPipeline.default().without("nonsense")

    def test_replacing_swaps_stage(self, excavator_client):
        class UpperBoundSplit(SplitStage):
            """Everything insider: the most conservative split."""

            def run(self, context):
                super().run(context)
                sai = context.sai
                from repro.core.classification import (
                    ClassifiedEntry,
                    InsiderOutsiderSplit,
                )
                context.split = InsiderOutsiderSplit(
                    insider=tuple(
                        ClassifiedEntry(
                            entry=e,
                            insider=True,
                            from_annotation=False,
                            insider_votes=0,
                            outsider_votes=0,
                        )
                        for e in sai
                    ),
                    outsider=(),
                )

        pipeline = PSPPipeline.default(learn=False).replacing(UpperBoundSplit())
        context = make_context(excavator_client)
        pipeline.run(context)
        assert len(context.split.insider) == len(context.sai)
        assert not context.split.outsider

    def test_replacing_unknown_stage_raises(self):
        class Oddball(PipelineStage):
            name = "oddball"

            def run(self, context):
                pass

        with pytest.raises(KeyError):
            PSPPipeline.default().replacing(Oddball())

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            PSPPipeline([QueryStage(), QueryStage()])

    def test_stage_lookup(self):
        pipeline = PSPPipeline.default()
        assert pipeline.stage("tune").name == "tune"
        with pytest.raises(KeyError):
            pipeline.stage("missing")


class TestFleet:
    FLEET = (
        TargetApplication("excavator", "europe", "industrial"),
        TargetApplication("agricultural_tractor", "europe", "industrial"),
        TargetApplication("light_truck", "europe", "commercial"),
    )

    def test_one_query_pass_per_region(self, excavator_client):
        fleet = run_fleet(
            excavator_client,
            self.FLEET,
            database=build_excavator_database(),
        )
        assert len(fleet) == 3
        assert fleet.query_passes == 1

    def test_members_share_corpus_results(self, excavator_client):
        fleet = run_fleet(
            excavator_client,
            self.FLEET,
            database=build_excavator_database(),
        )
        rows = {m.sai.as_rows() for m in fleet}
        # Same region + same database => identical social evidence.
        assert len(rows) == 1

    def test_member_matches_single_target_run(self, excavator_client):
        fleet = run_fleet(
            excavator_client,
            self.FLEET,
            database=build_excavator_database(),
        )
        single = PSPFramework(
            excavator_client,
            self.FLEET[0],
            database=build_excavator_database(),
        ).run(learn=False)
        member = fleet.member(self.FLEET[0])
        assert member.sai.as_rows() == single.sai.as_rows()
        assert (
            member.insider_table.as_rows() == single.insider_table.as_rows()
        )

    def test_distinct_regions_get_distinct_passes(self, excavator_client):
        fleet = run_fleet(
            excavator_client,
            (
                TargetApplication("excavator", "europe", "industrial"),
                TargetApplication("excavator", "north_america", "industrial"),
            ),
            database=build_excavator_database(),
        )
        assert fleet.query_passes == 2

    def test_unknown_member_lookup_raises(self, excavator_client):
        fleet = run_fleet(
            excavator_client,
            self.FLEET[:1],
            database=build_excavator_database(),
        )
        with pytest.raises(KeyError):
            fleet.member(TargetApplication("submarine", "europe", "naval"))

    def test_rejects_empty_and_duplicate_fleets(self, excavator_client):
        with pytest.raises(ValueError):
            run_fleet(
                excavator_client, (), database=build_excavator_database()
            )
        with pytest.raises(ValueError):
            run_fleet(
                excavator_client,
                (self.FLEET[0], self.FLEET[0]),
                database=build_excavator_database(),
            )

    def test_framework_run_fleet_delegates(self, excavator_framework):
        fleet = excavator_framework.run_fleet(self.FLEET)
        assert len(fleet) == 3
        assert fleet.query_passes == 1

    def test_fleet_taras_share_static_baseline(
        self, excavator_client, fig4_network
    ):
        from repro.tara import fleet_taras

        fleet = run_fleet(
            excavator_client,
            self.FLEET,
            database=build_excavator_database(),
        )
        report = fleet_taras(fig4_network, fleet)
        assert set(report.targets()) == {t.describe() for t in self.FLEET}
        disagreements = report.disagreements(fig4_network)
        # The PSP-tuned insider tables disagree with the static baseline
        # (the paper's core claim), for every fleet member.
        assert all(len(d) > 0 for d in disagreements.values())


class TestParallelFleet:
    FLEET = (
        TargetApplication("excavator", "europe", "industrial"),
        TargetApplication("agricultural_tractor", "europe", "industrial"),
        TargetApplication("light_truck", "europe", "commercial"),
        TargetApplication("excavator", "north_america", "industrial"),
    )

    def _fleet(self, client, **kwargs):
        return run_fleet(
            client,
            self.FLEET,
            database=build_excavator_database(),
            **kwargs,
        )

    def test_workers_produce_member_identical_results(self, excavator_client):
        serial = self._fleet(excavator_client)
        threaded = self._fleet(excavator_client, workers=3)
        for target in self.FLEET:
            left = serial.member(target)
            right = threaded.member(target)
            assert left.sai.as_rows() == right.sai.as_rows()
            assert (
                left.insider_table.as_rows()
                == right.insider_table.as_rows()
            )
        assert threaded.query_passes == serial.query_passes

    def test_explicit_executor_wins_and_is_not_closed(self, excavator_client):
        from repro.core.executor import ThreadExecutor

        executor = ThreadExecutor(2)
        fleet = self._fleet(excavator_client, executor=executor)
        assert len(fleet) == len(self.FLEET)
        # The caller owns an explicitly passed executor: still usable.
        assert executor.map(len, [[1, 2]]) == [2]
        executor.close()

    def test_member_order_preserved_under_workers(self, excavator_client):
        fleet = self._fleet(excavator_client, workers=2)
        assert [m.target for m in fleet] == list(self.FLEET)

    def test_framework_passes_workers_through(self, excavator_framework):
        serial = excavator_framework.run_fleet(self.FLEET[:3])
        parallel = excavator_framework.run_fleet(self.FLEET[:3], workers=2)
        for target in self.FLEET[:3]:
            assert (
                serial.member(target).insider_table.as_rows()
                == parallel.member(target).insider_table.as_rows()
            )

    def test_process_executor_rejected(self, excavator_client):
        from repro.core.executor import ProcessExecutor

        executor = ProcessExecutor(2)
        try:
            with pytest.raises(ValueError, match="thread"):
                self._fleet(excavator_client, executor=executor)
        finally:
            executor.close()


class TestCachedSAIStage:
    @pytest.mark.parametrize("max_entries", [None, 1])
    def test_sai_stage_adds_no_fetch_or_lookup(self, max_entries):
        """The SAI stage re-reads the query stage's cells or scans its batch.

        With one cache entry the cells the query stage filled are gone
        by the time the SAI stage runs: it must scan the batch, not
        refetch them.  Either way it counts no cache lookup.
        """
        window = TimeWindow(
            since=dt.date(2015, 1, 1), until=dt.date(2021, 6, 30)
        )

        def tick(stages):
            backend = CountingClient(excavator_corpus())
            cached = CachedClient(
                backend, cache=TTLCache(max_entries=max_entries)
            )
            context = make_context(cached, window)
            PSPPipeline(stages).run(context)
            return backend.calls, cached.stats.lookups, context

        query_calls, query_lookups, _ = tick([QueryStage()])
        calls, lookups, context = tick([QueryStage(), SAIStage()])
        assert (calls, lookups) == (query_calls, query_lookups)
        plain = make_context(InMemoryClient(excavator_corpus()), window)
        PSPPipeline([QueryStage(), SAIStage()]).run(plain)
        assert context.sai.entries == plain.sai.entries
