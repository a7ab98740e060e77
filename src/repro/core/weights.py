"""Dynamic weight-table generation (paper Fig. 7, block 12; Fig. 8).

The PSP framework's main contribution: for **insider** threat scenarios it
re-derives the attack-vector→feasibility table from the SAI evidence,
while **outsider** threats keep the standard's fixed weights unchanged
(paper Fig. 8-A/B — "re-tuning the standard model weight values on the
outsider entries does not make sense").

Tuning rule: the insider SAI probability mass is aggregated per attack
vector; each vector's share is mapped to a rating through the configured
thresholds (default: >= 0.50 High, >= 0.25 Medium, >= 0.08 Low, else
Very Low).  Vectors with *no* social evidence at all fall back to the
standard's rating capped at Low — absence of chatter is weak evidence of
infeasibility, not proof, but it must not leave a remote vector rated
High for an insider tampering scenario the data says is hands-on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.classification import InsiderOutsiderSplit
from repro.core.config import TuningThresholds
from repro.core.sai import SAIList, vector_shares
from repro.iso21434.enums import AttackVector, FeasibilityRating
from repro.iso21434.feasibility.attack_vector import (
    STANDARD_G9_TABLE,
    WeightTable,
    standard_table,
)


def rating_from_share(
    share: float, thresholds: Optional[TuningThresholds] = None
) -> FeasibilityRating:
    """Map a probability share in [0, 1] to a feasibility rating."""
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must be in [0, 1], got {share}")
    t = thresholds or TuningThresholds()
    if share >= t.high:
        return FeasibilityRating.HIGH
    if share >= t.medium:
        return FeasibilityRating.MEDIUM
    if share >= t.low:
        return FeasibilityRating.LOW
    return FeasibilityRating.VERY_LOW


@dataclass(frozen=True)
class TuningOutcome:
    """The result of one weight-tuning run."""

    insider_table: WeightTable
    outsider_table: WeightTable
    vector_shares: Mapping[AttackVector, float]
    window_label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector_shares", dict(self.vector_shares))

    def changed_vectors(self) -> Tuple[AttackVector, ...]:
        """Vectors whose insider rating differs from the standard table."""
        return self.insider_table.differs_from(standard_table())


#: A vector without social evidence keeps the standard rating, capped
#: at Low (see module docstring).
_NO_EVIDENCE: Dict[AttackVector, FeasibilityRating] = {
    vector: min(
        STANDARD_G9_TABLE[vector], FeasibilityRating.LOW, key=lambda r: r.level
    )
    for vector in AttackVector
}


def tuned_note(window_label: str = "") -> str:
    """The ``note`` of a PSP-tuned table for one analysis window."""
    return f"PSP-tuned ({window_label})" if window_label else "PSP-tuned"


class WeightTuner:
    """Generates PSP weight tables from classified SAI evidence."""

    def __init__(self, thresholds: Optional[TuningThresholds] = None) -> None:
        self._thresholds = thresholds or TuningThresholds()

    def ratings_from_shares(
        self, shares: Mapping[AttackVector, float]
    ) -> Dict[AttackVector, FeasibilityRating]:
        """The tuning rule: per-vector probability shares in, ratings out.

        Vectors absent from ``shares`` get the standard rating capped at
        Low (see module docstring).  Every tuned table's ratings come
        from here, so a caller holding only the shares (the stream's
        per-tick retune) can diff ratings without building a table.
        """
        ratings: Dict[AttackVector, FeasibilityRating] = {}
        for vector, fallback in _NO_EVIDENCE.items():
            share = shares.get(vector)
            ratings[vector] = (
                fallback
                if share is None
                else rating_from_share(share, self._thresholds)
            )
        return ratings

    def tune_from_shares(
        self,
        shares: Mapping[AttackVector, float],
        *,
        note: str = "",
    ) -> WeightTable:
        """Build an insider table from per-vector probability shares."""
        return WeightTable(
            self.ratings_from_shares(shares), source="psp", note=note
        )

    def tune(
        self,
        split: InsiderOutsiderSplit,
        *,
        window_label: str = "",
    ) -> TuningOutcome:
        """Run the full tuning step on a classified SAI list.

        Insider entries drive the tuned table; the outsider table is
        always the standard's, untouched (paper Fig. 8-A).  The insider
        probability mass is added per vector in the split's (rank)
        order.
        """
        shares = vector_shares(
            (entry.vector, entry.probability) for entry in split.insider_entries
        )
        insider_table = self.tune_from_shares(
            shares, note=tuned_note(window_label)
        )
        return TuningOutcome(
            insider_table=insider_table,
            outsider_table=standard_table(),
            vector_shares=shares,
            window_label=window_label,
        )


def tune_table_for_sai(
    sai: SAIList,
    *,
    thresholds: Optional[TuningThresholds] = None,
    note: str = "",
) -> WeightTable:
    """Shortcut: tune a table straight from a SAI list's vector shares.

    Useful when the caller has already restricted the SAI list to insider
    keywords (e.g. in the benches); for the full pipeline use
    :class:`WeightTuner` with a classified split.
    """
    tuner = WeightTuner(thresholds)
    return tuner.tune_from_shares(sai.probability_by_vector(), note=note)
