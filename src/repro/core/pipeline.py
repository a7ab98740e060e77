"""The PSP pipeline as explicit, composable stages (paper Fig. 7).

The seed implementation hard-wired the Fig. 7 flow inside
:class:`~repro.core.framework.PSPFramework`; this module breaks it into
named stages —

    learn → query → sai → split → tune → financial

— each a small object with a ``name`` and a ``run(context)`` method over
a shared :class:`PipelineContext`.  Stages can be skipped (``learn=False``
is now "drop the learn stage"), swapped (a custom classifier stage for a
different insider heuristic), or re-run over a *fleet* of targets while
the expensive query stage executes once per (region, window) and its
post corpus is shared (:func:`run_fleet`).

Design follows the single-pass pipeline-composition idiom of the related
feed-filtering repos: one context object flows through a list of stages,
every stage reads what earlier stages produced and writes its own slot,
and the pipeline itself is just the ordered list — no hidden coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.classification import InsiderOutsiderClassifier, InsiderOutsiderSplit
from repro.core.config import PSPConfig, TargetApplication
from repro.core.errors import DataUnavailableError, PSPError
from repro.core.executor import resolve_executor
from repro.core.financial import FinancialAssessment
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer, SAIList
from repro.core.timewindow import TimeWindow
from repro.core.weights import TuningOutcome, WeightTuner
from repro.social.api import BatchQuery, BatchResult, SocialMediaClient


@dataclass
class PipelineContext:
    """Mutable state flowing through the pipeline stages.

    Inputs (set by the caller) sit first; each stage fills exactly one
    of the output slots.  A slot left ``None`` means the producing stage
    was skipped — downstream stages that need it raise
    :class:`~repro.core.errors.PSPError` with the missing stage's name.
    """

    client: SocialMediaClient
    target: TargetApplication
    database: KeywordDatabase
    config: PSPConfig
    window: TimeWindow

    #: learn stage: keywords auto-learned this run.
    learned: Tuple[AttackKeyword, ...] = ()
    #: query stage: per-keyword posts for the window/region.
    batch: Optional[BatchResult] = None
    #: sai stage.
    sai: Optional[SAIList] = None
    #: split stage.
    split: Optional[InsiderOutsiderSplit] = None
    #: tune stage.
    tuning: Optional[TuningOutcome] = None
    #: financial stage: assessments for the assessed insider keywords.
    financial: Dict[str, FinancialAssessment] = field(default_factory=dict)

    def require(self, slot: str, producer: str) -> object:
        """The value of ``slot``, or a clear error naming the missing stage."""
        value = getattr(self, slot)
        if value is None:
            raise PSPError(
                f"pipeline slot {slot!r} is empty — run the {producer!r} "
                "stage first or provide it on the context"
            )
        return value


class PipelineStage:
    """One named step of the PSP pipeline.

    Subclasses set :attr:`name` and implement :meth:`run`; the base class
    exists so pipelines can be introspected, skipped and swapped by
    name.
    """

    name: str = "stage"

    def run(self, context: PipelineContext) -> None:
        """Execute the stage, reading and writing ``context`` slots."""
        raise NotImplementedError


class LearnStage(PipelineStage):
    """Auto-learn keywords from posts matching the known ones (block 5).

    Mines co-occurring hashtags over one batched query and adds the
    frequent ones to the database, mirroring the paper's auto-learning
    loop.  Learning *mutates the database*, bumping its version — which
    is exactly what invalidates any SAI caches.
    """

    name = "learn"

    def run(self, context: PipelineContext) -> None:
        if not len(context.database):
            return
        batch = BatchQuery(
            keywords=context.database.keywords,
            region=context.target.region,
            since=context.window.since,
            until=context.window.until,
        )
        result = context.client.search_many(batch)
        texts: List[str] = []
        for keyword in batch.keywords:
            texts.extend(p.text for p in result.posts(keyword))
        context.learned = tuple(
            context.database.learn_from_texts(
                texts,
                min_support=context.config.learning_min_support,
                max_new=context.config.learning_max_new,
            )
        )


class QueryStage(PipelineStage):
    """Fetch the window's posts for every keyword in one batch (block 2)."""

    name = "query"

    def run(self, context: PipelineContext) -> None:
        if not len(context.database):
            context.batch = BatchResult(posts_by_keyword={})
            return
        context.batch = context.client.search_many(
            BatchQuery(
                keywords=context.database.keywords,
                region=context.target.region,
                since=context.window.since,
                until=context.window.until,
            )
        )


class SAIStage(PipelineStage):
    """Score the SAI list from the fetched posts (blocks 6-7).

    A client that already holds the window's pre-aggregated evidence,
    such as the year cells a cached query stage has just filled, is
    scored from it (:meth:`~repro.core.sai.SAIComputer.window_signals`
    without ``fill``: no fetch, no counted lookup); otherwise the stage
    scans the query stage's posts.
    """

    name = "sai"

    def __init__(self, computer: Optional[SAIComputer] = None) -> None:
        self._computer = computer

    def run(self, context: PipelineContext) -> None:
        batch = context.require("batch", QueryStage.name)
        computer = self._computer or SAIComputer(
            context.client, config=context.config
        )
        signals = computer.window_signals(
            context.database,
            region=context.target.region,
            since=context.window.since,
            until=context.window.until,
            fill=False,
        )
        if signals is not None:
            context.sai = computer.compute_from_signals(
                context.database, signals
            )
        else:
            context.sai = computer.compute_from_posts(
                context.database, batch.posts_by_keyword
            )


class SplitStage(PipelineStage):
    """Partition the SAI list into insider/outsider entries (blocks 8-9)."""

    name = "split"

    def __init__(
        self, classifier: Optional[InsiderOutsiderClassifier] = None
    ) -> None:
        self._classifier = classifier

    def run(self, context: PipelineContext) -> None:
        sai = context.require("sai", SAIStage.name)
        classifier = self._classifier or InsiderOutsiderClassifier(context.client)
        context.split = classifier.split(sai)


class TuneStage(PipelineStage):
    """Generate the insider/outsider weight tables (block 12, Fig. 8)."""

    name = "tune"

    def run(self, context: PipelineContext) -> None:
        split = context.require("split", SplitStage.name)
        tuner = WeightTuner(context.config.tuning)
        context.tuning = tuner.tune(
            split, window_label=context.window.describe()
        )


class FinancialStage(PipelineStage):
    """Assess the financial feasibility of top insider attacks (Fig. 10).

    Args:
        assessor: callable running one financial assessment — typically
            ``framework.assess_financial``; injected so the stage stays
            decoupled from the sales/report/price databases.
        top: how many of the highest-SAI insider keywords to assess.

    Keywords whose market data is missing are skipped rather than
    failing the pipeline: financial coverage is inherently partial (the
    paper only prices the DPF example), and one absent cost table must
    not abort a fleet assessment.
    """

    name = "financial"

    def __init__(self, assessor, *, top: int = 1) -> None:
        if top < 1:
            raise ValueError(f"top must be >= 1, got {top}")
        self._assessor = assessor
        self._top = top

    def run(self, context: PipelineContext) -> None:
        split = context.require("split", SplitStage.name)
        ranked = sorted(
            split.insider_entries, key=lambda e: -e.score
        )[: self._top]
        for entry in ranked:
            try:
                context.financial[entry.keyword] = self._assessor(entry.keyword)
            except DataUnavailableError:
                continue


class PSPPipeline:
    """An ordered list of stages with skip/swap composition.

    The default pipeline is the full Fig. 7 flow; callers tailor it::

        PSPPipeline.default().without("learn")           # skip learning
        PSPPipeline.default().replacing(SplitStage(...)) # custom classifier
    """

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        names = [stage.name for stage in stages]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate stage names: {names}")
        self._stages: Tuple[PipelineStage, ...] = tuple(stages)

    @classmethod
    def default(cls, *, learn: bool = True) -> "PSPPipeline":
        """The standard learn→query→sai→split→tune pipeline."""
        stages: List[PipelineStage] = []
        if learn:
            stages.append(LearnStage())
        stages.extend([QueryStage(), SAIStage(), SplitStage(), TuneStage()])
        return cls(stages)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """Names of the stages, in execution order."""
        return tuple(stage.name for stage in self._stages)

    def stage(self, name: str) -> PipelineStage:
        """Look up one stage by name."""
        for candidate in self._stages:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no stage named {name!r}")

    def without(self, *names: str) -> "PSPPipeline":
        """A copy with the named stages removed."""
        unknown = set(names) - set(self.stage_names)
        if unknown:
            raise KeyError(f"cannot skip unknown stages: {sorted(unknown)}")
        return PSPPipeline(
            [stage for stage in self._stages if stage.name not in names]
        )

    def replacing(self, replacement: PipelineStage) -> "PSPPipeline":
        """A copy with the same-named stage swapped for ``replacement``."""
        if replacement.name not in self.stage_names:
            raise KeyError(f"no stage named {replacement.name!r} to replace")
        return PSPPipeline(
            [
                replacement if stage.name == replacement.name else stage
                for stage in self._stages
            ]
        )

    def followed_by(self, stage: PipelineStage) -> "PSPPipeline":
        """A copy with ``stage`` appended."""
        return PSPPipeline(list(self._stages) + [stage])

    def run(self, context: PipelineContext) -> PipelineContext:
        """Execute every stage in order over ``context`` and return it."""
        for stage in self._stages:
            stage.run(context)
        return context


# -- fleet execution ---------------------------------------------------------


@dataclass(frozen=True)
class FleetMemberResult:
    """One fleet member's pipeline outcome."""

    target: TargetApplication
    context: PipelineContext

    @property
    def sai(self) -> SAIList:
        """The member's SAI list."""
        return self.context.require("sai", SAIStage.name)

    @property
    def tuning(self) -> TuningOutcome:
        """The member's weight-tuning outcome."""
        return self.context.require("tuning", TuneStage.name)

    @property
    def insider_table(self):
        """The member's PSP-tuned insider weight table (Fig. 8-B)."""
        return self.tuning.insider_table


@dataclass(frozen=True)
class FleetResult:
    """Results of one fleet pass, keyed by target description."""

    window: TimeWindow
    members: Tuple[FleetMemberResult, ...]
    #: Number of platform query passes executed (one per distinct region).
    query_passes: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member(self, target: TargetApplication) -> FleetMemberResult:
        """Look up one member's result by target."""
        for candidate in self.members:
            if candidate.target == target:
                return candidate
        raise KeyError(f"no fleet member for target {target.describe()!r}")


def run_fleet(
    client: SocialMediaClient,
    targets: Sequence[TargetApplication],
    *,
    database: KeywordDatabase,
    config: Optional[PSPConfig] = None,
    window: Optional[TimeWindow] = None,
    learn: bool = False,
    workers: Optional[int] = None,
    executor=None,
) -> FleetResult:
    """Run the PSP pipeline over a fleet of targets in one pass.

    Targets sharing a region share the social corpus: the query stage
    executes once per distinct ``(region)`` in the fleet, and every
    member in that region reuses the fetched posts for its own
    sai→split→tune stages.  With 20 fleet targets in one region, the
    platform sees one batched query pass instead of 20.

    Keyword learning (when enabled) runs once up front on the shared
    database — a fleet shares its attack-keyword knowledge by design,
    matching the paper's "database accumulates across runs" lifecycle.

    Args:
        client: the shared social platform client.
        targets: the fleet; duplicates are rejected.
        database: shared attack-keyword database.
        config: pipeline tunables (defaults to :class:`PSPConfig`).
        window: analysis window (defaults to full history).
        learn: run one keyword auto-learning pass before querying.
        workers: run the per-member sai→split→tune tails through a
            thread-pool :mod:`~repro.core.executor` of this size.  The
            tails read the shared batch and classify through the shared
            (thread-safe) client cache, so any thread count produces
            member-for-member identical results.  Threads only — the
            members deliberately share the fetched corpus, its analysis
            memos and the query cache, none of which survive pickling
            to a process pool.
        executor: explicit executor instance; wins over ``workers``.
            Process executors are rejected (see ``workers``).
    """
    if not targets:
        raise ValueError("fleet needs at least one target")
    if len(set(targets)) != len(targets):
        raise ValueError("fleet targets must be distinct")
    if getattr(executor, "kind", None) == "process":
        raise ValueError(
            "run_fleet shares the fetched corpus and caches across "
            "members — use a thread executor (or workers=N)"
        )
    cfg = config or PSPConfig()
    win = window or TimeWindow.full_history()
    owns_executor = executor is None
    if owns_executor:
        executor = resolve_executor(workers, prefer="thread")

    if learn and targets:
        # One learning pass over the first region's scene; the database
        # (and its bumped version) is shared by every member.
        seed_context = PipelineContext(
            client=client,
            target=targets[0],
            database=database,
            config=cfg,
            window=win,
        )
        LearnStage().run(seed_context)

    by_region: Dict[str, List[TargetApplication]] = {}
    for target in targets:
        by_region.setdefault(target.region, []).append(target)

    tail = PSPPipeline([SAIStage(), SplitStage(), TuneStage()])

    def run_tail(context: PipelineContext) -> PipelineContext:
        return tail.run(context)

    members: List[FleetMemberResult] = []
    try:
        for region, region_targets in by_region.items():
            query_context = PipelineContext(
                client=client,
                target=region_targets[0],
                database=database,
                config=cfg,
                window=win,
            )
            QueryStage().run(query_context)
            contexts = [
                replace(query_context, target=target, financial={})
                for target in region_targets
            ]
            # The embarrassingly parallel stretch: every member's tail
            # reads the shared batch and writes only its own context.
            for target, context in zip(
                region_targets, executor.map(run_tail, contexts)
            ):
                members.append(
                    FleetMemberResult(target=target, context=context)
                )
    finally:
        if owns_executor:
            executor.close()

    ordered = {t: None for t in targets}
    for member in members:
        ordered[member.target] = member
    return FleetResult(
        window=win,
        members=tuple(ordered[t] for t in targets),
        query_passes=len(by_region),
    )
