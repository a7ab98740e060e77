"""The PSP framework orchestrator (paper Figs. 7 and 10).

:class:`PSPFramework` wires the whole pipeline together:

1. take the target application input (Fig. 7, block 1);
2. query the social platform per attack keyword and compute the SAI list
   with per-entry attack-probability estimates (blocks 2, 6, 7);
3. auto-learn new keywords from co-occurring hashtags (block 5);
4. split the SAI list into insider and outsider entries (blocks 8, 9);
5. generate the updated ISO-21434 attack-vector weight table for insider
   threats, leaving outsider weights at the standard values (block 12,
   Fig. 8);
6. on request, run the financial feasibility pipeline (Fig. 10): PAE from
   sales x report-mined attacker rate, PPIA from price clustering, the
   market value MV, and the required adversary investment FC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cache import CachedClient, CacheStats, SAICache, TTLCache
from repro.core.classification import InsiderOutsiderClassifier, InsiderOutsiderSplit
from repro.core.config import PSPConfig, TargetApplication
from repro.core.errors import DataUnavailableError
from repro.core.financial import FinancialAssessment, assess, potential_attackers
from repro.core.keywords import AttackKeyword, KeywordDatabase, paper_seed_database
from repro.core.pipeline import (
    FleetResult,
    LearnStage,
    PipelineContext,
    PSPPipeline,
    SAIStage,
    SplitStage,
    run_fleet,
)
from repro.core.sai import SAIComputer, SAIList
from repro.core.timewindow import TimeWindow, TrendInversion, detect_inversions
from repro.core.weights import TuningOutcome, WeightTuner
from repro.iso21434.feasibility.attack_vector import WeightTable
from repro.market.pricing import PriceCatalog, default_price_catalog, variable_cost
from repro.market.reports import ReportLibrary, default_report_library
from repro.market.sales import SalesDatabase, default_sales_database
from repro.nlp.textmining import find_count
from repro.social.api import SocialMediaClient


@dataclass(frozen=True)
class PSPRunResult:
    """Everything one PSP run produces for a given time window."""

    target: TargetApplication
    window: TimeWindow
    sai: SAIList
    split: InsiderOutsiderSplit
    tuning: TuningOutcome
    learned_keywords: Tuple[AttackKeyword, ...]

    @property
    def insider_table(self) -> WeightTable:
        """The PSP-tuned insider weight table (Fig. 8-B)."""
        return self.tuning.insider_table

    @property
    def outsider_table(self) -> WeightTable:
        """The untouched standard table for outsider threats (Fig. 8-A)."""
        return self.tuning.outsider_table


class PSPFramework:
    """Top-level entry point of the PSP framework.

    Args:
        client: social platform client (the Twitter substitution layer).
        target: what application/region/category the run is about.
        database: attack-keyword database; defaults to the paper's manual
            seed.  The same instance is mutated by keyword learning, so it
            accumulates knowledge across runs — the paper's intended
            lifecycle.
        config: pipeline tunables.
        sales: sales database for PAE.
        reports: annual-report library for attacker rates and competitor
            counts.
        prices: listing catalogue for PPIA.
        cache: enable query + SAI result caching.  ``True`` creates a
            private unbounded store; passing a :class:`TTLCache` shares
            its entries/TTL policy.  With caching on, overlapping
            analysis windows that start on Jan 1 (the monitor's growing
            window) reuse the query cache's year cells and their
            memoised SAI evidence, so each window fetches and scores
            only the days it newly covers; pipeline runs are memoised
            until the keyword database changes.
    """

    def __init__(
        self,
        client: SocialMediaClient,
        target: TargetApplication,
        *,
        database: Optional[KeywordDatabase] = None,
        config: Optional[PSPConfig] = None,
        sales: Optional[SalesDatabase] = None,
        reports: Optional[ReportLibrary] = None,
        prices: Optional[PriceCatalog] = None,
        cache: Union[bool, TTLCache] = False,
    ) -> None:
        self._sai_cache: Optional[SAICache] = None
        # NB: an empty TTLCache is falsy (it defines __len__), so test
        # for the instance explicitly rather than truthiness.
        if isinstance(cache, TTLCache) or cache is True:
            store = cache if isinstance(cache, TTLCache) else TTLCache()
            client = CachedClient(client, cache=store)
            self._sai_cache = SAICache(store.sibling())
        self._client = client
        self._target = target
        self._config = config or PSPConfig()
        self._database = database if database is not None else paper_seed_database()
        self._sales = sales if sales is not None else default_sales_database()
        self._reports = reports if reports is not None else default_report_library()
        self._prices = prices if prices is not None else default_price_catalog()
        self._sai_computer = SAIComputer(client, config=self._config)
        self._classifier = InsiderOutsiderClassifier(client)
        self._tuner = WeightTuner(self._config.tuning)
        # Built once: the stages score with this framework's computer
        # and classifier, so a run builds no analyzer.
        self._pipeline = (
            PSPPipeline.default(learn=False)
            .replacing(SAIStage(self._sai_computer))
            .replacing(SplitStage(self._classifier))
        )

    @property
    def database(self) -> KeywordDatabase:
        """The (mutable, learning) attack-keyword database."""
        return self._database

    @property
    def target(self) -> TargetApplication:
        """The configured target application."""
        return self._target

    @property
    def config(self) -> PSPConfig:
        """The pipeline tunables in force."""
        return self._config

    @property
    def client(self) -> SocialMediaClient:
        """The social client in force (the cache wrapper when enabled)."""
        return self._client

    @property
    def cache_stats(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Query/SAI cache statistics, or None when caching is off."""
        if self._sai_cache is None:
            return None
        query_stats: CacheStats = self._client.stats  # type: ignore[attr-defined]
        return {
            "query": query_stats.as_dict(),
            "sai": self._sai_cache.stats.as_dict(),
        }

    def _context(self, window: TimeWindow) -> PipelineContext:
        """A fresh pipeline context bound to this framework's state."""
        return PipelineContext(
            client=self._client,
            target=self._target,
            database=self._database,
            config=self._config,
            window=window,
        )

    # -- pipeline steps ----------------------------------------------------

    def compute_sai(self, window: Optional[TimeWindow] = None) -> SAIList:
        """Compute the SAI list for the target within ``window``.

        With caching enabled, repeats of the same (database version,
        window) are served from the SAI cache without touching the
        platform or the scorer.
        """
        w = window or TimeWindow.full_history()
        if self._sai_cache is not None:
            cached = self._sai_cache.get(
                self._database.version,
                region=self._target.region,
                since=w.since,
                until=w.until,
                tag="sai",
            )
            if cached is not None:
                return cached
        sai = self._sai_computer.compute(
            self._database,
            region=self._target.region,
            since=w.since,
            until=w.until,
        )
        if self._sai_cache is not None:
            self._sai_cache.put(
                self._database.version,
                sai,
                region=self._target.region,
                since=w.since,
                until=w.until,
                tag="sai",
            )
        return sai

    def learn_keywords(
        self, window: Optional[TimeWindow] = None
    ) -> List[AttackKeyword]:
        """Run one auto-learning pass over posts matching known keywords."""
        w = window or TimeWindow.full_history()
        context = self._context(w)
        LearnStage().run(context)
        return list(context.learned)

    def run(
        self,
        window: Optional[TimeWindow] = None,
        *,
        learn: bool = True,
    ) -> PSPRunResult:
        """Execute the full Fig. 7 pipeline for one time window.

        The flow is the default stage pipeline
        (learn → query → sai → split → tune); with caching enabled the
        post-learning stages are memoised per (database version, window)
        — keyword learning bumps the version, so a run that actually
        learned something recomputes, while repeat runs over unchanged
        knowledge are free.
        """
        w = window or TimeWindow.full_history()
        context = self._context(w)
        if learn:
            LearnStage().run(context)
        learned = context.learned

        if self._sai_cache is not None:
            cached = self._sai_cache.get(
                self._database.version,
                region=self._target.region,
                since=w.since,
                until=w.until,
                tag="run",
            )
            if cached is not None:
                sai, split, tuning = cached
                return PSPRunResult(
                    target=self._target,
                    window=w,
                    sai=sai,
                    split=split,
                    tuning=tuning,
                    learned_keywords=learned,
                )

        self._pipeline.run(context)
        sai, split, tuning = context.sai, context.split, context.tuning
        if self._sai_cache is not None:
            self._sai_cache.put(
                self._database.version,
                (sai, split, tuning),
                region=self._target.region,
                since=w.since,
                until=w.until,
                tag="run",
            )
        return PSPRunResult(
            target=self._target,
            window=w,
            sai=sai,
            split=split,
            tuning=tuning,
            learned_keywords=tuple(learned),
        )

    def run_fleet(
        self,
        targets: Sequence[TargetApplication],
        *,
        window: Optional[TimeWindow] = None,
        learn: bool = False,
        workers: Optional[int] = None,
    ) -> FleetResult:
        """Assess a fleet of targets in one pass over the shared corpus.

        Delegates to :func:`repro.core.pipeline.run_fleet` with this
        framework's client, database and config; targets sharing a
        region share one batched query pass (and, with caching enabled,
        later fleets reuse the cached results too).  ``workers`` runs
        the per-member tails through a thread-pool executor.
        """
        return run_fleet(
            self._client,
            targets,
            database=self._database,
            config=self._config,
            window=window,
            learn=learn,
            workers=workers,
        )

    def compare_windows(
        self, before: TimeWindow, after: TimeWindow
    ) -> Tuple[PSPRunResult, PSPRunResult, List[TrendInversion]]:
        """Run two windows and report vector-rank inversions between them.

        This is the paper's Fig. 9-B vs Fig. 9-C experiment: the full
        history versus the recent window, with the physical→local trend
        inversion surfaced explicitly.
        """
        result_before = self.run(before, learn=False)
        result_after = self.run(after, learn=False)
        inversions = detect_inversions(result_before.sai, result_after.sai)
        return result_before, result_after, inversions

    # -- financial pipeline (Fig. 10) ---------------------------------------

    def assess_financial(
        self,
        keyword: str,
        *,
        competitors: Optional[int] = None,
        sales_year: Optional[int] = None,
    ) -> FinancialAssessment:
        """Run the Fig. 10 financial pipeline for one insider attack.

        PAE comes from the sales database and the report-mined attacker
        rate; PPIA from listing-price clustering; the competitor count n
        from report text mining; VCU from the cost table.  The returned
        assessment carries MV (Eq. 1) and the required adversary
        investment (Eq. 5 with BEP = PAE, the paper's Eq. 7).

        Raises:
            DataUnavailableError: when sales, listings or cost data are
                missing for the target/keyword.
        """
        record = self._sales.lookup(
            self._target.application, self._target.region, sales_year
        )
        if record is None:
            raise DataUnavailableError(
                f"no sales record for {self._target.describe()}"
            )
        report = self._reports.latest(
            self._target.application, self._target.region
        )
        attacker_rate = (
            report.attacker_rate if report else self._config.default_attacker_rate
        )
        pae = potential_attackers(record, attacker_rate)

        try:
            ppia = self._prices.estimate_ppia(keyword)
        except ValueError as exc:
            raise DataUnavailableError(str(exc)) from exc
        try:
            vcu = variable_cost(keyword)
        except KeyError as exc:
            raise DataUnavailableError(str(exc)) from exc

        n = competitors
        if n is None and report is not None:
            mined = find_count([report.prose], "competing sellers")
            if mined is None:
                mined = find_count([report.prose], "competitors")
            n = mined
        if n is None:
            n = self._config.default_competitors

        return assess(keyword, pae=pae, ppia=ppia, vcu=vcu, competitors=n)
