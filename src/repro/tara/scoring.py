"""Batch TARA scoring: many weight tables, one compiled model.

The score phase of the split runtime (see :mod:`repro.tara.model`):
given a :class:`~repro.tara.model.CompiledThreatModel`,
:class:`BatchTaraScorer` evaluates any number of attack-vector weight
tables without re-walking the architecture.  Per-threat feasibility is
memoised on ``(hosting ECU, usable vectors, table fingerprint)`` — two
tables assigning the same four ratings share every lookup, and within
one table all threats of an ECU with the same vector set resolve from
one computation.  Step materialisation is memoised on the model itself
(per ``(path, entry-rating)``), so a 10-member fleet, the lifecycle
reprocessor and the runtime monitor all share it.

Output is record-for-record identical to a fresh per-table
``TaraEngine.run()`` (property-tested in
``tests/properties/test_tara_batch_equivalence.py`` and gated in CI by
``benchmarks/bench_tara_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.iso21434.attack_path import AttackPath
from repro.iso21434.cal import determine_cal
from repro.iso21434.enums import CAL, AttackVector, FeasibilityRating
from repro.iso21434.feasibility.attack_vector import WeightTable, standard_table
from repro.iso21434.impact import ImpactProfile
from repro.iso21434.risk import RiskMatrix, default_matrix
from repro.iso21434.threats import ThreatScenario
from repro.iso21434.treatment import TreatmentOption, TreatmentPolicy
from repro.tara.model import CompiledThreatModel, PathSkeleton

#: Fixed vector order used by table fingerprints.
_FINGERPRINT_ORDER = (
    AttackVector.NETWORK,
    AttackVector.ADJACENT,
    AttackVector.LOCAL,
    AttackVector.PHYSICAL,
)


def table_fingerprint(table: WeightTable) -> Tuple[FeasibilityRating, ...]:
    """The ratings of a table in fixed vector order.

    Tables differing only in ``source``/``note`` share a fingerprint:
    feasibility depends on the ratings alone, so they also share every
    scorer memo entry.
    """
    return ratings_fingerprint(table.ratings)


def ratings_fingerprint(
    ratings: Mapping[AttackVector, FeasibilityRating],
) -> Tuple[FeasibilityRating, ...]:
    """The :func:`table_fingerprint` of a table with these ratings."""
    return tuple(ratings[v] for v in _FINGERPRINT_ORDER)


@dataclass(frozen=True)
class TaraRecord:
    """The complete TARA outcome for one threat scenario."""

    threat: ThreatScenario
    impact: ImpactProfile
    feasibility: FeasibilityRating
    entry_vector: Optional[AttackVector]
    risk_value: int
    cal: CAL
    treatment: TreatmentOption
    paths: Tuple[AttackPath, ...]

    @property
    def ecu_id(self) -> Optional[str]:
        """The hosting ECU of the threatened asset (by id convention)."""
        return self.threat.asset_id.split(".")[0] if self.threat.asset_id else None


@dataclass(frozen=True)
class TaraReportData:
    """A full TARA run's output."""

    table_source: str
    records: Tuple[TaraRecord, ...]

    def by_threat(self) -> Dict[str, TaraRecord]:
        """Records keyed by threat id (memoised — treat as read-only).

        Fleet diffing calls this once per member against the shared
        static baseline; the index is built on first use and reused.
        """
        cached = self.__dict__.get("_by_threat")
        if cached is None:
            cached = {r.threat.threat_id: r for r in self.records}
            object.__setattr__(self, "_by_threat", cached)
        return cached

    def high_risk(self, threshold: int = 4) -> Tuple[TaraRecord, ...]:
        """Records at or above the risk-value threshold."""
        return tuple(r for r in self.records if r.risk_value >= threshold)


@dataclass(frozen=True)
class TableSpec:
    """One labelled (outsider, insider) table pair for a batch score.

    ``table`` defaults to the standard G.9 table; ``insider_table``
    defaults to ``table`` — the same defaulting as ``TaraEngine``.
    """

    label: str
    table: Optional[WeightTable] = None
    insider_table: Optional[WeightTable] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("TableSpec label must be non-empty")


#: Memoised per-threat feasibility outcome: the rating, the winning
#: entry vector and the (path_id, rated steps) pairs shared by every
#: threat with the same (ECU, vectors, table-fingerprint) key.
_Scored = Tuple[
    FeasibilityRating,
    Optional[AttackVector],
    Tuple[Tuple[str, tuple], ...],
]


class BatchTaraScorer:
    """Scores weight tables over one compiled threat model.

    Args:
        model: the compiled architecture (shared; its materialisation
            memo outlives any single scorer).
        risk_matrix: risk-value matrix.
        policy: risk-treatment policy.
    """

    def __init__(
        self,
        model: CompiledThreatModel,
        *,
        risk_matrix: Optional[RiskMatrix] = None,
        policy: Optional[TreatmentPolicy] = None,
    ) -> None:
        self._model = model
        self._matrix = risk_matrix if risk_matrix is not None else default_matrix()
        self._policy = policy or TreatmentPolicy()
        self._memo: Dict[Tuple, _Scored] = {}
        self._lookups = 0
        self._hits = 0

    @property
    def model(self) -> CompiledThreatModel:
        """The compiled model being scored."""
        return self._model

    @property
    def memo_stats(self) -> Dict[str, float]:
        """Feasibility-memo lookups, hits and hit rate."""
        return {
            "lookups": self._lookups,
            "hits": self._hits,
            "hit_rate": (self._hits / self._lookups) if self._lookups else 0.0,
        }

    # -- feasibility core ---------------------------------------------------

    def _feasibility_for(
        self,
        ecu_id: str,
        vectors: frozenset,
        table: WeightTable,
    ) -> _Scored:
        """Feasibility outcome for (ECU, usable vectors) under one table."""
        fingerprint = table_fingerprint(table)
        key = (ecu_id, vectors, fingerprint)
        self._lookups += 1
        scored = self._memo.get(key)
        if scored is not None:
            self._hits += 1
            return scored

        model = self._model
        pairs: List[Tuple[str, tuple]] = []
        best_rank: Optional[Tuple[int, int]] = None
        best_skeleton: Optional[PathSkeleton] = None
        for skeleton in model.skeletons_for(ecu_id):
            if skeleton.entry_vector not in vectors:
                continue
            entry_rating = table.rating(skeleton.entry_vector)
            pairs.append(
                (skeleton.path_id, model.materialize_steps(skeleton, entry_rating))
            )
            # max() keeps the first maximal path, so only a strictly
            # greater (level, -length) rank displaces the incumbent.
            rank = (skeleton.feasibility_under(entry_rating), -skeleton.length)
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best_skeleton = skeleton

        if best_skeleton is None or best_rank is None:
            # No network path exists: fall back to the best vector the
            # threat can use directly (e.g. bench access not modelled).
            best_vector = max(
                vectors, key=lambda v: (table.rating(v).level, v.reach)
            )
            feasibility = table.rating(best_vector)
            entry_vector: Optional[AttackVector] = best_vector
        else:
            # Threat feasibility is the max over path feasibilities,
            # which the lexicographic best-path rank already carries.
            feasibility = FeasibilityRating.from_level(best_rank[0])
            entry_vector = best_skeleton.entry_vector

        scored = (feasibility, entry_vector, tuple(pairs))
        self._memo[key] = scored
        return scored

    def _record_for(
        self,
        threat: ThreatScenario,
        impact: ImpactProfile,
        table: WeightTable,
    ) -> TaraRecord:
        ecu_id = threat.asset_id.split(".")[0]
        feasibility, entry_vector, pairs = self._feasibility_for(
            ecu_id, threat.attack_vectors, table
        )
        paths = tuple(
            AttackPath(path_id=path_id, threat_id=threat.threat_id, steps=steps)
            for path_id, steps in pairs
        )
        risk = self._matrix.risk_value(impact.overall, feasibility)
        cal = (
            determine_cal(impact.overall, entry_vector)
            if entry_vector is not None
            else CAL.NONE
        )
        treatment = self._policy.decide(risk, impact)
        return TaraRecord(
            threat=threat,
            impact=impact,
            feasibility=feasibility,
            entry_vector=entry_vector,
            risk_value=risk,
            cal=cal,
            treatment=treatment,
            paths=paths,
        )

    # -- public scoring API -------------------------------------------------

    def assess_threat(
        self,
        threat: ThreatScenario,
        *,
        table: Optional[WeightTable] = None,
        insider_table: Optional[WeightTable] = None,
    ) -> TaraRecord:
        """Assess a single threat (compiled or ad-hoc) under one table pair."""
        outsider = table if table is not None else standard_table()
        insider = insider_table if insider_table is not None else outsider
        active = insider if threat.is_owner_approved else outsider
        impact = self._model.impact_for(threat)
        return self._record_for(threat, impact, active)

    def score(
        self,
        *,
        table: Optional[WeightTable] = None,
        insider_table: Optional[WeightTable] = None,
    ) -> TaraReportData:
        """One full TARA report under one (outsider, insider) table pair."""
        outsider = table if table is not None else standard_table()
        insider = insider_table if insider_table is not None else outsider
        records = tuple(
            self._record_for(
                threat, impact, insider if threat.is_owner_approved else outsider
            )
            for threat, impact in self._model.items()
        )
        return TaraReportData(table_source=outsider.source, records=records)

    def score_many(
        self, specs: Sequence[TableSpec], *, executor=None
    ) -> Dict[str, TaraReportData]:
        """Score a whole batch of table pairs in one sweep, label-keyed.

        Later specs reuse every memo entry earlier specs populated —
        the fleet workload (one static baseline + N tuned members over
        one architecture) degenerates to one compile plus N cheap
        re-scores.

        Args:
            executor: optional :mod:`~repro.core.executor` instance to
                score the specs concurrently.  Scores are pure
                functions of the compiled model, so any thread count
                returns spec-for-spec identical reports; threads only —
                the point of the batch is sharing one feasibility memo,
                which pickling to a process pool would copy, so process
                executors are rejected.
        """
        labels = [spec.label for spec in specs]
        seen: set = set()
        for label in labels:
            if label in seen:
                raise ValueError(f"duplicate TableSpec label {label!r}")
            seen.add(label)
        if executor is None or getattr(executor, "kind", None) == "serial":
            scored = [
                self.score(table=spec.table, insider_table=spec.insider_table)
                for spec in specs
            ]
        else:
            if getattr(executor, "kind", None) == "process":
                raise ValueError(
                    "score_many shares one feasibility memo across specs "
                    "— use a thread executor"
                )
            scored = executor.map(
                lambda spec: self.score(
                    table=spec.table, insider_table=spec.insider_table
                ),
                specs,
            )
        return dict(zip(labels, scored))
