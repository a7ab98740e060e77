"""Vehicle E/E architecture substrate (paper Fig. 4).

ECU, bus and domain models, the network topology, the Fig. 4 reference
architecture, and graph attack-path enumeration feeding the ISO/SAE-21434
attack-path analysis.
"""

from repro.vehicle.architecture import reference_architecture, scaled_architecture
from repro.vehicle.attack_surface import (
    DEFAULT_CUTOFF,
    AttackSurfaceAnalyzer,
    SurfaceReport,
)
from repro.vehicle.bus import Bus, BusKind
from repro.vehicle.domains import (
    DOMAIN_EXPOSURE,
    VehicleDomain,
    is_plausible,
    plausible_vectors,
)
from repro.vehicle.ecu import Ecu
from repro.vehicle.messages import (
    CanMessage,
    MessageCatalog,
    Signal,
    message_assets,
    message_threats,
    powertrain_catalog,
)
from repro.vehicle.network import EntryPoint, NodeKind, VehicleNetwork
from repro.vehicle.uds import (
    DiagnosticProfile,
    SecurityAccessLevel,
    UdsService,
    hardened_profile,
    hardening_control,
    legacy_profile,
)

__all__ = [
    "AttackSurfaceAnalyzer",
    "Bus",
    "BusKind",
    "CanMessage",
    "DEFAULT_CUTOFF",
    "DOMAIN_EXPOSURE",
    "DiagnosticProfile",
    "Ecu",
    "EntryPoint",
    "MessageCatalog",
    "NodeKind",
    "SecurityAccessLevel",
    "Signal",
    "SurfaceReport",
    "UdsService",
    "VehicleDomain",
    "VehicleNetwork",
    "hardened_profile",
    "hardening_control",
    "is_plausible",
    "legacy_profile",
    "message_assets",
    "message_threats",
    "plausible_vectors",
    "powertrain_catalog",
    "reference_architecture",
    "scaled_architecture",
]
