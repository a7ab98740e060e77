"""Vehicle network topology (paper Fig. 4).

:class:`VehicleNetwork` holds an undirected graph whose nodes are ECUs,
buses and external entry points.  Edges express reachability: an ECU
attached to a bus reaches the bus; a gateway bridges two buses; an entry
point (OBD port, cellular link, the attacker's bench) reaches whatever
it is wired to.  Attack paths are simple paths through this graph from
an entry point to a target ECU (:mod:`repro.vehicle.attack_surface`).

The graph is a dict of insertion-ordered neighbour dicts, and every
query walks it directly.  TARA path ids follow path order and the
network fingerprint follows edge order, so both are pinned: they are
the orders a ``networkx.Graph`` built by the same calls gives
(``all_simple_paths``, ``Graph.edges``), which
``tests/vehicle/test_network_oracle.py`` checks against networkx itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.iso21434.enums import AttackVector
from repro.vehicle.bus import Bus
from repro.vehicle.ecu import Ecu


class NodeKind(enum.Enum):
    """Classification of a topology node."""

    ECU = "ecu"
    BUS = "bus"
    ENTRY_POINT = "entry_point"


@dataclass(frozen=True)
class EntryPoint:
    """An external access point into the vehicle network.

    Attributes:
        entry_id: unique identifier, e.g. ``"obd_port"``.
        name: human-readable name.
        vector: the attack-vector class required to use this entry point
            (OBD port = local, cellular = network, Bluetooth = adjacent,
            bench access to an ECU = physical).
    """

    entry_id: str
    name: str
    vector: AttackVector

    def __post_init__(self) -> None:
        if not self.entry_id:
            raise ValueError("entry_id must be non-empty")


class VehicleNetwork:
    """The E/E architecture graph."""

    def __init__(self, name: str = "vehicle") -> None:
        self.name = name
        # node -> its neighbours (dict keys as an ordered set), both in
        # the order they were added or first attached.
        self._adjacency: Dict[str, Dict[str, None]] = {}
        self._ecus: Dict[str, Ecu] = {}
        self._buses: Dict[str, Bus] = {}
        self._entries: Dict[str, EntryPoint] = {}

    # -- construction -----------------------------------------------------

    def add_ecu(self, ecu: Ecu) -> Ecu:
        """Add an ECU node; rejects duplicate identifiers."""
        self._check_new(ecu.ecu_id)
        self._ecus[ecu.ecu_id] = ecu
        self._adjacency[ecu.ecu_id] = {}
        return ecu

    def add_bus(self, bus: Bus) -> Bus:
        """Add a bus node; rejects duplicate identifiers."""
        self._check_new(bus.bus_id)
        self._buses[bus.bus_id] = bus
        self._adjacency[bus.bus_id] = {}
        return bus

    def add_entry_point(self, entry: EntryPoint) -> EntryPoint:
        """Add an external entry-point node; rejects duplicates."""
        self._check_new(entry.entry_id)
        self._entries[entry.entry_id] = entry
        self._adjacency[entry.entry_id] = {}
        return entry

    def attach(self, node_a: str, node_b: str) -> None:
        """Connect two existing nodes (ECU-bus, bus-bus via gateway, etc.)."""
        self._check_known(node_a, node_b)
        if node_a == node_b:
            raise ValueError(f"cannot attach node {node_a!r} to itself")
        self._adjacency[node_a][node_b] = None
        self._adjacency[node_b][node_a] = None

    def _check_new(self, node_id: str) -> None:
        if not node_id:
            raise ValueError("node id must be non-empty")
        if node_id in self._adjacency:
            raise ValueError(f"duplicate node id {node_id!r}")

    def _check_known(self, *node_ids: str) -> None:
        for node in node_ids:
            if node not in self._adjacency:
                raise KeyError(f"unknown node {node!r}")

    # -- lookup -----------------------------------------------------------

    def ecu(self, ecu_id: str) -> Ecu:
        """Look up an ECU by id."""
        try:
            return self._ecus[ecu_id]
        except KeyError:
            raise KeyError(f"unknown ECU {ecu_id!r}") from None

    def bus(self, bus_id: str) -> Bus:
        """Look up a bus by id."""
        try:
            return self._buses[bus_id]
        except KeyError:
            raise KeyError(f"unknown bus {bus_id!r}") from None

    def entry_point(self, entry_id: str) -> EntryPoint:
        """Look up an entry point by id."""
        try:
            return self._entries[entry_id]
        except KeyError:
            raise KeyError(f"unknown entry point {entry_id!r}") from None

    def node_kind(self, node_id: str) -> NodeKind:
        """The kind of an existing node."""
        if node_id in self._ecus:
            return NodeKind.ECU
        if node_id in self._buses:
            return NodeKind.BUS
        if node_id in self._entries:
            return NodeKind.ENTRY_POINT
        raise KeyError(f"unknown node {node_id!r}")

    @property
    def ecus(self) -> Tuple[Ecu, ...]:
        """All ECUs."""
        return tuple(self._ecus.values())

    @property
    def buses(self) -> Tuple[Bus, ...]:
        """All buses."""
        return tuple(self._buses.values())

    @property
    def entry_points(self) -> Tuple[EntryPoint, ...]:
        """All entry points."""
        return tuple(self._entries.values())

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Every link once, as ``(earlier-added node, other node)``.

        Ordered by the earlier node's addition, then by when the link was
        attached: the order ``networkx.Graph.edges`` gives.
        """
        edges: List[Tuple[str, str]] = []
        done: Set[str] = set()
        for node, neighbours in self._adjacency.items():
            edges.extend(
                (node, neighbour) for neighbour in neighbours
                if neighbour not in done
            )
            done.add(node)
        return tuple(edges)

    # -- queries ----------------------------------------------------------

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        """Direct neighbours of a node."""
        self._check_known(node_id)
        return tuple(sorted(self._adjacency[node_id]))

    def buses_of(self, ecu_id: str) -> Tuple[Bus, ...]:
        """Buses the ECU is attached to."""
        self.ecu(ecu_id)
        return tuple(
            self._buses[n] for n in self.neighbors(ecu_id) if n in self._buses
        )

    def reachable_from(self, entry_id: str) -> Tuple[str, ...]:
        """ECU ids reachable from an entry point through the topology."""
        self.entry_point(entry_id)
        component = set().union(*self._levels(entry_id))
        return tuple(sorted(n for n in component if n in self._ecus))

    def simple_paths(
        self, source: str, target: str, *, cutoff: Optional[int] = None
    ) -> Iterator[List[str]]:
        """All simple paths between two nodes, optionally length-bounded.

        ``cutoff`` bounds a path's hop count; ``None`` means one less
        than the node count (no bound), and a negative cutoff yields no
        path.  Paths come in depth-first order, each node's neighbours
        tried in the order they were attached.
        """
        self._check_known(source, target)
        if cutoff is None:
            cutoff = len(self._adjacency) - 1
        return self._simple_paths(source, target, cutoff)

    def _simple_paths(
        self, source: str, target: str, cutoff: int
    ) -> Iterator[List[str]]:
        if cutoff < 0:
            return
        if source == target:
            yield [source]
            return
        adjacency = self._adjacency
        path = [source]
        on_path = {source}
        # One neighbour iterator per node on the path: a depth-first
        # search that resumes each node where it left off.  A cutoff of
        # 0 leaves the source unexpanded.
        stack = [iter(adjacency[source])] if cutoff else []
        while stack:
            node = next((n for n in stack[-1] if n not in on_path), None)
            if node is None:
                stack.pop()
                on_path.discard(path.pop())
            elif node == target:
                yield path + [node]
            elif len(path) < cutoff:
                path.append(node)
                on_path.add(node)
                stack.append(iter(adjacency[node]))

    def hop_distance(self, source: str, target: str) -> int:
        """Shortest-path hop count between two nodes.

        Raises:
            KeyError: when either node is unknown.
            ValueError: when no path joins the nodes.
        """
        self._check_known(source, target)
        for distance, level in enumerate(self._levels(source)):
            if target in level:
                return distance
        raise ValueError(f"no path between {source!r} and {target!r}")

    def _levels(self, source: str) -> Iterator[Set[str]]:
        """Breadth-first levels: the nodes 0, 1, 2, ... hops from ``source``."""
        adjacency = self._adjacency
        seen = {source}
        level = {source}
        while level:
            yield level
            level = {n for node in level for n in adjacency[node]} - seen
            seen |= level
