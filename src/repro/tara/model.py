"""Compiled threat models: the table-independent half of a TARA.

A full Clause-15 TARA factors cleanly into two phases with very different
costs and change rates:

1. **Compile** — asset identification, STRIDE threat enumeration,
   impact rating and attack-path *structure* (which node sequences lead
   from which entry points to which ECUs, and how many feasibility
   step-downs each sequence accumulates crossing filtered gateways and
   pivot ECUs).  All of this depends only on the
   :class:`~repro.vehicle.network.VehicleNetwork` (plus optional impact
   overrides and extra threats) — **not** on the attack-vector weight
   table.
2. **Score** — feasibility, risk value, CAL and treatment, which are
   pure functions of the compiled structure and one
   :class:`~repro.iso21434.feasibility.attack_vector.WeightTable`.

The paper's headline experiment (E10) and every fleet/lifecycle/monitor
workload re-score the *same* architecture under many tables, so phase 1
is compiled **once** per network — fingerprinted and cached exactly like
:class:`repro.social.index.CorpusIndex` caches the corpus side — and
phase 2 (:mod:`repro.tara.scoring`) sweeps whole batches of tables over
it.

The compiled step "skeletons" reproduce
:class:`~repro.vehicle.attack_surface.AttackSurfaceAnalyzer` output
exactly: a step rated by the analyzer as ``step_down^k(entry_rating)``
is stored as penalty ``k``, and saturating repeated decrements equal a
single clamped subtraction, so materialising a skeleton under any table
yields step-for-step identical :class:`~repro.iso21434.attack_path.AttackPath`
objects (property-tested in
``tests/properties/test_tara_batch_equivalence.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.iso21434.assets import AssetRegistry, standard_ecu_assets
from repro.iso21434.attack_path import AttackPath, AttackStep
from repro.iso21434.enums import (
    AttackerProfile,
    AttackVector,
    FeasibilityRating,
    ImpactCategory,
    ImpactRating,
)
from repro.iso21434.impact import ImpactProfile
from repro.iso21434.threats import ThreatScenario, enumerate_stride_threats
from repro.vehicle.attack_surface import DEFAULT_CUTOFF
from repro.vehicle.domains import VehicleDomain
from repro.vehicle.ecu import Ecu
from repro.vehicle.network import NodeKind, VehicleNetwork

#: Default impact profile per domain: powertrain/chassis threats carry
#: safety impact; communication carries operational+privacy; body is
#: operational; infotainment privacy+financial.
DOMAIN_IMPACT: Mapping[VehicleDomain, ImpactProfile] = {
    VehicleDomain.POWERTRAIN: ImpactProfile(
        {
            ImpactCategory.SAFETY: ImpactRating.SEVERE,
            ImpactCategory.OPERATIONAL: ImpactRating.MAJOR,
            ImpactCategory.FINANCIAL: ImpactRating.MAJOR,
        }
    ),
    VehicleDomain.CHASSIS: ImpactProfile(
        {
            ImpactCategory.SAFETY: ImpactRating.SEVERE,
            ImpactCategory.OPERATIONAL: ImpactRating.MAJOR,
        }
    ),
    VehicleDomain.BODY: ImpactProfile(
        {
            ImpactCategory.OPERATIONAL: ImpactRating.MODERATE,
            ImpactCategory.FINANCIAL: ImpactRating.MODERATE,
        }
    ),
    VehicleDomain.INFOTAINMENT: ImpactProfile(
        {
            ImpactCategory.PRIVACY: ImpactRating.MAJOR,
            ImpactCategory.FINANCIAL: ImpactRating.MODERATE,
        }
    ),
    VehicleDomain.COMMUNICATION: ImpactProfile(
        {
            ImpactCategory.OPERATIONAL: ImpactRating.MAJOR,
            ImpactCategory.PRIVACY: ImpactRating.MAJOR,
        }
    ),
    VehicleDomain.GATEWAY: ImpactProfile(
        {
            ImpactCategory.OPERATIONAL: ImpactRating.MAJOR,
            ImpactCategory.SAFETY: ImpactRating.MAJOR,
        }
    ),
    VehicleDomain.DIAGNOSTIC: ImpactProfile(
        {ImpactCategory.OPERATIONAL: ImpactRating.MODERATE}
    ),
}


# -- TARA activities 1-3 (table-independent) ---------------------------------


def identify_assets(network: VehicleNetwork) -> AssetRegistry:
    """Activity 1: enumerate the canonical assets of every ECU."""
    registry = AssetRegistry()
    for ecu in network.ecus:
        registry.register_all(standard_ecu_assets(ecu.ecu_id, ecu.name))
    return registry


def default_attacker_profiles(ecu: Optional[Ecu]) -> frozenset:
    """Default attacker profiles for an asset hosted on ``ecu``.

    Powertrain/chassis assets default to the insider set (the paper's
    Insider / Rational-Local owners); everything else to outsiders.
    """
    if ecu is not None and ecu.domain in (
        VehicleDomain.POWERTRAIN,
        VehicleDomain.CHASSIS,
    ):
        return frozenset(
            {
                AttackerProfile.INSIDER,
                AttackerProfile.RATIONAL,
                AttackerProfile.LOCAL,
            }
        )
    return frozenset({AttackerProfile.OUTSIDER, AttackerProfile.MALICIOUS})


def enumerate_threats(
    network: VehicleNetwork, assets: AssetRegistry
) -> List[ThreatScenario]:
    """Activity 2: STRIDE threat enumeration per asset.

    Attack vectors are the hosting ECU's plausible vectors; attacker
    profiles default per :func:`default_attacker_profiles`.
    """
    threats: List[ThreatScenario] = []
    for asset in assets:
        ecu = network.ecu(asset.ecu_id) if asset.ecu_id else None
        vectors = ecu.plausible_vectors if ecu else frozenset(AttackVector)
        profiles = default_attacker_profiles(ecu)
        threats.extend(
            enumerate_stride_threats(
                asset, attack_vectors=vectors, attacker_profiles=profiles
            )
        )
    return threats


def rate_impact(
    network: VehicleNetwork,
    threat: ThreatScenario,
    overrides: Optional[Mapping[str, ImpactProfile]] = None,
) -> ImpactProfile:
    """Activity 3: impact rating (per-ECU override, else domain default)."""
    ecu_id = threat.asset_id.split(".")[0]
    if overrides and ecu_id in overrides:
        return overrides[ecu_id]
    ecu = network.ecu(ecu_id)
    return DOMAIN_IMPACT[ecu.domain]


# -- attack-path skeletons ---------------------------------------------------


@dataclass(frozen=True)
class StepSkeleton:
    """One attack step with its rating deferred.

    ``penalty`` is the cumulative number of feasibility step-downs in
    force at this step (gateway crossings and pivot ECUs before or at
    it); the materialised rating is ``clamp(entry_level - penalty)``.
    """

    description: str
    penalty: int
    vector: Optional[AttackVector] = None
    location: Optional[str] = None


@dataclass(frozen=True)
class PathSkeleton:
    """The table-independent structure of one attack path."""

    path_id: str
    entry_vector: AttackVector
    steps: Tuple[StepSkeleton, ...]

    @property
    def total_penalty(self) -> int:
        """Step-downs accumulated over the whole path (max per-step)."""
        return self.steps[-1].penalty

    @property
    def length(self) -> int:
        """Number of steps."""
        return len(self.steps)

    def feasibility_under(self, entry_rating: FeasibilityRating) -> int:
        """The path's feasibility *level* given the entry-vector rating."""
        return max(0, entry_rating.level - self.total_penalty)


def _compile_steps(
    network: VehicleNetwork,
    entry_vector: AttackVector,
    node_path: List[str],
) -> Tuple[StepSkeleton, ...]:
    """The skeleton of ``AttackSurfaceAnalyzer._rate_steps`` for one path."""
    entry_name = network.entry_point(node_path[0]).name
    steps = [
        StepSkeleton(
            description=f"Gain access via {entry_name}",
            penalty=0,
            vector=entry_vector,
            location=node_path[0],
        )
    ]
    penalty = 0
    for position, node in enumerate(node_path[1:], start=1):
        kind = network.node_kind(node)
        if kind is NodeKind.BUS:
            bus = network.bus(node)
            previous_kind = network.node_kind(node_path[position - 1])
            if bus.segmented and previous_kind is NodeKind.ECU:
                penalty += 1
                description = f"Cross filtering gateway onto {bus.name}"
            else:
                description = f"Inject traffic on {bus.name}"
            steps.append(
                StepSkeleton(description=description, penalty=penalty, location=node)
            )
        elif kind is NodeKind.ECU and node == node_path[-1]:
            ecu = network.ecu(node)
            steps.append(
                StepSkeleton(
                    description=f"Compromise {ecu.name}",
                    penalty=penalty,
                    location=node,
                )
            )
        elif kind is NodeKind.ECU:
            ecu = network.ecu(node)
            penalty += 1
            steps.append(
                StepSkeleton(
                    description=f"Pivot through {ecu.name}",
                    penalty=penalty,
                    location=node,
                )
            )
    return tuple(steps)


def _compile_skeletons(
    network: VehicleNetwork, ecu_id: str, cutoff: int
) -> Tuple[PathSkeleton, ...]:
    """Enumerate path skeletons to one ECU, in analyzer order."""
    skeletons: List[PathSkeleton] = []
    for entry in network.entry_points:
        for index, node_path in enumerate(
            network.simple_paths(entry.entry_id, ecu_id, cutoff=cutoff)
        ):
            skeletons.append(
                PathSkeleton(
                    path_id=f"ap.{ecu_id}.{entry.entry_id}.{index}",
                    entry_vector=entry.vector,
                    steps=_compile_steps(network, entry.vector, node_path),
                )
            )
    return tuple(skeletons)


# -- the compiled model ------------------------------------------------------


class CompiledThreatModel:
    """Everything about a TARA that does not depend on the weight table.

    Built by :func:`compile_threat_model`; shared (via the compile
    cache) by the baseline run, every fleet member, the lifecycle
    reprocessor, the runtime monitor and the baseline triangulation.
    Materialised steps are memoised per ``(path, entry-rating)`` so even
    the residual per-table work is shared across every scorer holding
    the model.
    """

    def __init__(
        self,
        network: VehicleNetwork,
        *,
        fingerprint: str,
        assets: AssetRegistry,
        threats: Tuple[ThreatScenario, ...],
        impacts: Tuple[ImpactProfile, ...],
        skeletons: Mapping[str, Tuple[PathSkeleton, ...]],
        impact_overrides: Mapping[str, ImpactProfile],
        cutoff: int,
    ) -> None:
        if len(threats) != len(impacts):
            raise ValueError("threats and impacts must align")
        self._network = network
        self._fingerprint = fingerprint
        self._assets = assets
        self._threats = threats
        self._impacts = impacts
        self._skeletons = dict(skeletons)
        self._impact_overrides = dict(impact_overrides)
        self._cutoff = cutoff
        #: (path_id, entry-rating level) -> materialised AttackStep tuple.
        self._steps_memo: Dict[Tuple[str, int], Tuple[AttackStep, ...]] = {}

    @property
    def network(self) -> VehicleNetwork:
        """The compiled architecture."""
        return self._network

    @property
    def fingerprint(self) -> str:
        """Structural digest of the network this model was compiled from."""
        return self._fingerprint

    @property
    def assets(self) -> AssetRegistry:
        """Activity-1 output: the asset registry."""
        return self._assets

    @property
    def threats(self) -> Tuple[ThreatScenario, ...]:
        """Activity-2 output plus extra threats, in assessment order."""
        return self._threats

    @property
    def path_count(self) -> int:
        """Total number of compiled path skeletons."""
        return sum(len(s) for s in self._skeletons.values())

    def __len__(self) -> int:
        return len(self._threats)

    def items(self) -> Iterator[Tuple[ThreatScenario, ImpactProfile]]:
        """Iterate ``(threat, impact)`` pairs in assessment order."""
        return zip(self._threats, self._impacts)

    def impact_for(self, threat: ThreatScenario) -> ImpactProfile:
        """Impact profile for any threat over this architecture.

        :func:`rate_impact` is pure, so this returns exactly the
        compiled profile for compiled threats and rates ad-hoc threats
        (e.g. one passed straight to ``TaraEngine.assess_threat``) on
        demand.
        """
        return rate_impact(self._network, threat, self._impact_overrides)

    def skeletons_for(self, ecu_id: str) -> Tuple[PathSkeleton, ...]:
        """Path skeletons reaching one ECU (validates the ECU exists)."""
        self._network.ecu(ecu_id)
        return self._skeletons.get(ecu_id, ())

    def ecu_domain(self, ecu_id: str) -> Optional[VehicleDomain]:
        """The hosting ECU's domain, or None for non-ECU asset ids."""
        try:
            return self._network.ecu(ecu_id).domain
        except KeyError:
            return None

    def materialize_steps(
        self, skeleton: PathSkeleton, entry_rating: FeasibilityRating
    ) -> Tuple[AttackStep, ...]:
        """Rated attack steps for a skeleton under one entry rating.

        Memoised per ``(path, entry-rating)``: a 4-vector table can only
        produce 4 distinct entry ratings, so a whole fleet of tables
        shares at most ``4 x paths`` materialisations.
        """
        key = (skeleton.path_id, entry_rating.level)
        steps = self._steps_memo.get(key)
        if steps is None:
            base = entry_rating.level
            steps = tuple(
                AttackStep(
                    description=s.description,
                    feasibility=FeasibilityRating.clamp(base - s.penalty),
                    vector=s.vector,
                    location=s.location,
                )
                for s in skeleton.steps
            )
            self._steps_memo[key] = steps
        return steps

    def paths_for(self, threat: ThreatScenario, table) -> List[AttackPath]:
        """Activity-4 output for one threat under one weight table.

        Identical to the legacy
        ``AttackSurfaceAnalyzer.paths_to(...)`` filtered to the threat's
        usable entry vectors.
        """
        ecu_id = threat.asset_id.split(".")[0]
        paths: List[AttackPath] = []
        for skeleton in self.skeletons_for(ecu_id):
            if skeleton.entry_vector not in threat.attack_vectors:
                continue
            steps = self.materialize_steps(
                skeleton, table.rating(skeleton.entry_vector)
            )
            paths.append(
                AttackPath(
                    path_id=skeleton.path_id,
                    threat_id=threat.threat_id,
                    steps=steps,
                )
            )
        return paths


# -- fingerprinting and the compile cache ------------------------------------


def network_fingerprint(network: VehicleNetwork) -> str:
    """Structural digest of a network, stable across processes.

    Node *insertion order* is part of the digest because attack-path
    enumeration order (and therefore path ids) depends on it.
    """
    hasher = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            hasher.update(str(part).encode("utf-8"))
            hasher.update(b"\x1f")
        hasher.update(b"\x1e")

    feed("name", network.name)
    for ecu in network.ecus:
        feed(
            "ecu",
            ecu.ecu_id,
            ecu.name,
            ecu.domain.value,
            ecu.safety_critical,
            ecu.fota_capable,
            sorted(v.value for v in ecu.external_interfaces),
        )
    for bus in network.buses:
        feed("bus", bus.bus_id, bus.name, bus.kind.value, bus.domain.value,
             bus.segmented)
    for entry in network.entry_points:
        feed("entry", entry.entry_id, entry.name, entry.vector.value)
    for node_a, node_b in network.edges:
        feed("edge", node_a, node_b)
    return hasher.hexdigest()


def _overrides_key(
    overrides: Optional[Mapping[str, ImpactProfile]]
) -> Tuple:
    if not overrides:
        return ()
    return tuple(
        sorted(
            (
                ecu_id,
                tuple(
                    sorted(
                        (category.value, rating.level)
                        for category, rating in profile.ratings.items()
                    )
                ),
            )
            for ecu_id, profile in overrides.items()
        )
    )


#: Bounded FIFO-ish compile cache (LRU via move-to-end on hit).
_COMPILE_CACHE: "OrderedDict[Tuple, CompiledThreatModel]" = OrderedDict()
_COMPILE_CACHE_MAX = 16
_cache_hits = 0
_cache_misses = 0


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters and current size of the compile cache."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_COMPILE_CACHE),
    }


def clear_compile_cache() -> None:
    """Drop every cached compiled model and reset the counters."""
    global _cache_hits, _cache_misses
    _COMPILE_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


def compile_threat_model(
    network: VehicleNetwork,
    *,
    impact_overrides: Optional[Mapping[str, ImpactProfile]] = None,
    extra_threats: Tuple[ThreatScenario, ...] = (),
    cutoff: int = DEFAULT_CUTOFF,
) -> CompiledThreatModel:
    """Compile (or fetch from cache) the threat model of one network.

    The cache key is the network's structural fingerprint plus the
    override/extra-threat/cutoff inputs, so mutating a network (or
    passing different extras) transparently recompiles while repeated
    runs over an unchanged architecture — the fleet, monitor, lifecycle
    and timeline workloads — share one compiled model *and* its
    materialisation memo.

    Args:
        network: the architecture to compile.
        impact_overrides: per-ECU impact profiles replacing the domain
            defaults.
        extra_threats: additional threat scenarios appended after the
            auto-enumerated ones (``<ecu_id>.<rest>`` asset-id
            convention; unknown ECUs raise ``KeyError`` at compile time,
            where the legacy engine raised at assessment time).
        cutoff: maximum attack-path length in nodes.
    """
    global _cache_hits, _cache_misses
    extras = tuple(extra_threats)
    key = (
        network_fingerprint(network),
        _overrides_key(impact_overrides),
        extras,
        cutoff,
    )
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        _cache_hits += 1
        _COMPILE_CACHE.move_to_end(key)
        return cached
    _cache_misses += 1

    assets = identify_assets(network)
    threats = tuple(enumerate_threats(network, assets)) + extras
    overrides = dict(impact_overrides or {})
    impacts = tuple(rate_impact(network, t, overrides) for t in threats)
    skeletons = {
        ecu.ecu_id: _compile_skeletons(network, ecu.ecu_id, cutoff)
        for ecu in network.ecus
    }
    model = CompiledThreatModel(
        network,
        fingerprint=key[0],
        assets=assets,
        threats=threats,
        impacts=impacts,
        skeletons=skeletons,
        impact_overrides=overrides,
        cutoff=cutoff,
    )
    _COMPILE_CACHE[key] = model
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
    return model
