"""networkx as the oracle of :class:`VehicleNetwork`'s graph queries.

Each network's ``add_*`` and ``attach`` calls are replayed, in order,
into an ``nx.Graph``, and every query must give networkx's answer in
networkx's order: TARA path ids follow ``simple_paths`` order and the
compile-cache key follows ``edges`` order.  The two architectures are
trees, where only one path joins two nodes, so the drawn networks add
cycles to show path order.  networkx is a test dependency only; these
tests skip without it, apart from the fingerprint pins.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iso21434.enums import AttackVector
from repro.tara.model import network_fingerprint
from repro.vehicle import architecture
from repro.vehicle.bus import Bus, BusKind
from repro.vehicle.domains import VehicleDomain
from repro.vehicle.ecu import Ecu
from repro.vehicle.network import EntryPoint, VehicleNetwork

CUTOFFS = (None, 1, 2, 3, 4, 6)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def mirrored_network(nx):
    """A :class:`VehicleNetwork` subclass that replays its own
    construction calls into ``self.oracle``, an ``nx.Graph``."""

    class Mirrored(VehicleNetwork):
        def __init__(self, name: str = "vehicle") -> None:
            super().__init__(name)
            self.oracle = nx.Graph()

        def add_ecu(self, ecu):
            added = super().add_ecu(ecu)
            self.oracle.add_node(ecu.ecu_id)
            return added

        def add_bus(self, bus):
            added = super().add_bus(bus)
            self.oracle.add_node(bus.bus_id)
            return added

        def add_entry_point(self, entry):
            added = super().add_entry_point(entry)
            self.oracle.add_node(entry.entry_id)
            return added

        def attach(self, node_a, node_b):
            super().attach(node_a, node_b)
            self.oracle.add_edge(node_a, node_b)

    return Mirrored


def built(nx, monkeypatch, build, *args):
    """``build(*args)`` with every network it makes mirrored."""
    monkeypatch.setattr(architecture, "VehicleNetwork", mirrored_network(nx))
    return build(*args)


def assert_matches_oracle(nx, net, pairs, cutoffs=CUTOFFS):
    graph = net.oracle
    ecu_ids = {ecu.ecu_id for ecu in net.ecus}
    assert net.edges == tuple(graph.edges)
    for node in graph:
        assert net.neighbors(node) == tuple(sorted(graph.neighbors(node)))
    for entry in net.entry_points:
        component = nx.node_connected_component(graph, entry.entry_id)
        assert net.reachable_from(entry.entry_id) == tuple(
            sorted(node for node in component if node in ecu_ids)
        )
    for source, target in pairs:
        for cutoff in cutoffs:
            assert list(net.simple_paths(source, target, cutoff=cutoff)) == list(
                nx.all_simple_paths(graph, source, target, cutoff=cutoff)
            ), (source, target, cutoff)
        if nx.has_path(graph, source, target):
            assert net.hop_distance(source, target) == nx.shortest_path_length(
                graph, source, target
            )
        else:
            with pytest.raises(ValueError, match="no path"):
                net.hop_distance(source, target)


def entry_ecu_pairs(net):
    return [
        (entry.entry_id, ecu.ecu_id)
        for entry, ecu in product(net.entry_points, net.ecus)
    ]


class TestArchitectures:
    def test_reference_architecture(self, nx, monkeypatch):
        net = built(nx, monkeypatch, architecture.reference_architecture)
        assert_matches_oracle(nx, net, entry_ecu_pairs(net))

    def test_scaled_architecture(self, nx, monkeypatch):
        net = built(nx, monkeypatch, architecture.scaled_architecture, 6, 8)
        assert_matches_oracle(nx, net, entry_ecu_pairs(net))


#: A drawn network: each node's kind, then the attach calls as
#: (node, node) index pairs, repeats and either orientation included.
drawn_networks = st.integers(min_value=1, max_value=8).flatmap(
    lambda size: st.tuples(
        st.lists(
            st.sampled_from(("ecu", "bus", "entry")),
            min_size=size,
            max_size=size,
        ),
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1)
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=3 * size,
        ),
    )
)


def drawn_network(nx, kinds, links):
    net = mirrored_network(nx)("drawn")
    for position, kind in enumerate(kinds):
        node_id = f"{kind}{position}"
        if kind == "ecu":
            net.add_ecu(Ecu(node_id, node_id, VehicleDomain.BODY))
        elif kind == "bus":
            net.add_bus(Bus(node_id, node_id, BusKind.CAN, VehicleDomain.BODY))
        else:
            net.add_entry_point(EntryPoint(node_id, node_id, AttackVector.LOCAL))
    nodes = list(net.oracle)
    for a, b in links:
        net.attach(nodes[a], nodes[b])
    return net


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn_networks)
def test_drawn_networks_with_cycles(nx, network):
    net = drawn_network(nx, *network)
    nodes = list(net.oracle)
    assert_matches_oracle(
        nx, net, list(product(nodes, nodes)), cutoffs=(-1, 0) + CUTOFFS
    )


class TestFingerprintPins:
    """The TARA compile-cache key keeps the values it had when the
    topology lived in networkx (edge order included)."""

    def test_reference_architecture(self):
        assert network_fingerprint(architecture.reference_architecture()) == (
            "b3201e4ea0818ee5bce28c33a4283c4b18354ea8730be3364070d68277239701"
        )

    def test_scaled_architecture(self):
        assert network_fingerprint(architecture.scaled_architecture(6, 8)) == (
            "e1cde948dabf5571f05b0f68a5c9a8df8998f77ff93f371a4c5b32ac995f356d"
        )
